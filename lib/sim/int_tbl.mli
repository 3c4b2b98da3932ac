(** Hashtables keyed by immediate ints.

    The one int-keyed table of the message path: the NIC's pending
    operations and remote locks, the fabric's edges, each node's clock
    store and the coherence shadow. A
    lookup hashes the key inline, with no call into the runtime's
    polymorphic hash and no boxed key.

    The hash multiplies the key by an odd constant and folds the
    product's high half into its low bits. Callers pack pairs into one
    int (a granule is [(offset lsl 21) lor len], an edge
    [src * n + dst]), so keys often differ only in their high bits; the
    fold makes the bucket index depend on those bits too.

    Iteration order ({!fold}) is unspecified: callers that need an order
    sort what they collect. *)

type 'a t

val create : int -> 'a t
(** [create size] is an empty table with room for about [size] entries
    before it first grows. *)

val length : 'a t -> int

val find : 'a t -> int -> 'a
(** Raises [Not_found] when the key is absent (without recording a
    backtrace). *)

val replace : 'a t -> int -> 'a -> unit
(** Binds the key, replacing any previous binding. *)

val remove : 'a t -> int -> unit
(** Drops the key's binding; a no-op when there is none. *)

val fold : (int -> 'a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc

val clear : 'a t -> unit
(** Drops every binding in place, keeping the bucket array. *)
