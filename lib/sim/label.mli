(** Event footprint labels for schedule-exploration independence.

    Every heap entry carries one of these packed ints (default
    {!unknown}). An event labeled [v ~node ~origin] declares that its
    action touches only state owned by [node] (memory segments, lock
    table, coherence shadow, outgoing fabric channels) and state owned
    by [origin] (its process continuation, pending-operation ivars, its
    detector process clock). Two events are independent — they
    commute, and a partial-order-reduced search need only explore one of
    their orders — exactly when both are known and they agree on
    neither component. [unknown] events are dependent with everything,
    which is always sound: an unlabeled event can only cost pruning,
    never soundness. *)

type t = int

val unknown : t
(** The footprint of an undeclared event: dependent with everything. *)

val v : node:int -> origin:int -> t
(** [v ~node ~origin] packs a footprint. Components outside [0, 2^20-2]
    degrade to {!unknown}. *)

val is_known : t -> bool

val node : t -> int
(** The node component; meaningless on {!unknown}. *)

val origin : t -> int
(** The origin component; meaningless on {!unknown}. *)
