(** What the probe bus's consumers read of a protocol message: its
    label, its operation id, and the pairing of its send with its
    delivery.

    [Msg_sent]/[Msg_delivered] carry the wire message itself
    ({!Wire.t}, which [Dsm_rdma.Message] includes), so an emit site
    neither copies nor formats it. Only the consumers that print a
    message — the race explainer's chains, the Perfetto timeline, the
    space-time diagram — call {!label}, and only when they print. *)

val label : Wire.t -> string
(** The one-line rendering, e.g. ["put#3 from P1 -> pub\[8..+2) (acked)"];
    [Dsm_rdma.Message.describe] is this function. *)

val op : Wire.t -> int
(** The issuing operation's id; [-1] for [Unlock], which carries
    none. *)

(** {1 Pairing sends with deliveries} *)

type 'a pending
(** What each send still waiting for its delivery left behind (a flow
    id, a send time), FIFO per (src, dst, label). The one send–delivery
    pairing of the Perfetto timeline's flows and the space-time
    diagram's arrows: exact under in-order delivery, best-effort under
    reordering faults. *)

val pending : unit -> 'a pending

val push_sent : 'a pending -> src:int -> dst:int -> string -> 'a -> unit
(** [push_sent pending ~src ~dst label x] queues [x] for the message
    [label] sent from [src] to [dst]. *)

val pop_sent : 'a pending -> src:int -> dst:int -> string -> 'a option
(** The oldest value queued for a delivery of [label] from [src] to
    [dst], removed; [None] when no send is queued, and the consumer
    skips that delivery. *)
