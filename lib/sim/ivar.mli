(** Write-once synchronization cells for simulated processes.

    An ivar is filled exactly once; processes that {!read} it before the
    fill suspend and are resumed (in registration order, at the fill's
    simulated instant) when the value arrives. This is the building block
    for completion notification in the RDMA layer. *)

type 'a t

val create : unit -> 'a t

val fill : label:Label.t -> Engine.t -> 'a t -> 'a -> unit
(** [fill ~label sim iv v] sets the value and schedules every waiter's
    resumption at the current instant; [label] is the footprint attached
    to each resumption event ({!Label.unknown} when there is none).
    Raises [Failure] if [iv] is already filled. *)

val read : Engine.t -> 'a t -> 'a
(** [read sim iv] returns the value, suspending the calling process until
    {!fill} if necessary. *)
