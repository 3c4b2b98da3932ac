(** Serial-specification oracle for one-sided RMWs.

    The target NIC serializes the RMWs on a granule under the region
    lock, so their applies form a total order per word. This observer
    replays that order against an atomic reference heap and records a
    violation whenever an RMW's observed old value diverges from the
    reference (a lost update — the §5.2 window the region lock is meant
    to close) or its committed result diverges from the serial
    specification ([apply_atomic] / [apply_acc]) of that old value.

    Committed plain puts and get landings into public memory update the
    reference heap; words first seen through a read or an RMW are
    adopted unchecked (memory initialized out of band needs no
    declaration). Duplicate applies under raw faulty links are
    individually self-consistent and stay clean. *)

type t

val attach : Dsm_rdma.Machine.t -> t
(** Install the oracle as a machine observer. One per run: the
    reference heap is not resettable — explored runs build a fresh
    machine, and the oracle rides along. *)

val violations : t -> string list
(** Human-readable atomicity/return-value violations, oldest first.
    Empty on a linearizable run. *)

val is_clean : t -> bool

val checked : t -> int
(** RMW apply events replayed so far (one per word for accumulates). *)

val expected : t -> node:int -> offset:int -> int option
(** The reference heap's current value for a public word, if the word
    was ever observed — what memory must hold at quiescence provided
    only observed writes touched it. Scenario monitors use this to
    compare the final heap against the serial specification. *)
