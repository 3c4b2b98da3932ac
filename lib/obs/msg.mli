(** A protocol message as plain fields: what the probe bus's
    [Msg_sent]/[Msg_delivered] events carry in place of a formatted
    label, and the one renderer that turns those fields into the label.

    The RDMA layer fills a {!t} from its wire message
    ([Dsm_rdma.Message.fields]); [Message.describe] is [label] of that.
    Emit sites therefore format nothing: only the consumers that print
    a message — the race explainer's chains, the Perfetto timeline, the
    space-time diagram — call {!label}, and only when they print.

    Every field is an immediate or a string the wire message already
    holds, so a [t] is plain data that [=] and [compare] can read, like
    the rest of a probe event. *)

type kind =
  | Put
  | Put_ack
  | Put_batch
  | Get
  | Get_reply
  | Fetch_add
  | Cas
  | Atomic_reply
  | Accumulate
  | Acc_reply
  | Lock_request
  | Lock_granted
  | Unlock
  | Control
  | Control_reply

type t = {
  kind : kind;
  op : int;  (** the issuing operation's id; [-1] for [Unlock] *)
  origin : int;  (** the issuing process (requests); 0 on replies *)
  offset : int;  (** the first public word addressed (requests) *)
  len : int;
      (** words: the addressed span, the reply or control payload, or a
          batch's total data words *)
  parts : int;  (** [Put_batch]: coalesced parts *)
  arg : int;
      (** [Fetch_add]: the delta; [Cas]: the expected value;
          [Atomic_reply]: the old value; [Lock_granted]/[Unlock]: the
          lock token *)
  arg2 : int;  (** [Cas]: the desired value *)
  locked : bool;  (** data verbs: the target NIC takes the range lock *)
  acked : bool;  (** puts: the origin waits for an ack *)
  name : string;  (** [Control]: the tag; [Accumulate]: the operator *)
}

val none : t
(** Every field zero, [false] or [""], kind [Put]: the base the RDMA
    layer fills with [{ none with ... }]. *)

val label : t -> string
(** The one-line rendering, e.g. ["put#3 from P1 -> pub\[8..+2) (acked)"]
    — exactly what [Dsm_rdma.Message.describe] has always printed. *)

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
