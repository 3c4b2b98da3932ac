(** Wire messages exchanged between NIC agents.

    The protocol implements §3.2 of the paper: [Put] carries the data in a
    single message; [Get]/[Get_reply] form the two-message read. Remote
    accesses always target the destination's {e public} segment — the
    private segment is not remotely addressable (Figure 1), so messages
    carry bare offsets.

    [locked = true] asks the target NIC to take its range lock around the
    access (the atomicity of §3.2); [locked = false] serves the data verbs
    run [~locked:false] inside detector transactions that already hold
    the locks (Algorithms 1–2).

    [Lock_request]/[Lock_granted]/[Unlock] expose the NIC lock service to
    remote initiators, and [Control]/[Control_reply] is the extension point
    upper layers (race-detector metadata, PGAS collectives) use without
    teaching the NIC their semantics.

    [extra_words] on data messages models piggybacked metadata (e.g.
    vector clocks): it inflates the wire size without being part of the
    user payload. *)

type t =
  | Put of {
      op : int;
      origin : int;
      offset : int;
      data : int array;
      extra_words : int;
      locked : bool;
      want_ack : bool;
    }
  | Put_ack of { op : int }
  | Put_batch of {
      op : int;
      origin : int;
      parts : (int * int array) array;
          (** [(offset, data)] pairs in ascending, non-overlapping
              address order — contiguous same-destination puts coalesced
              into one fabric message. The whole batch pays a single
              header; each part pays one extra word for its offset. *)
      extra_words : int;
      locked : bool;
      want_ack : bool;
    }
  | Get of {
      op : int;
      origin : int;
      offset : int;
      len : int;
      extra_words : int;
      locked : bool;
    }
  | Get_reply of { op : int; data : int array; extra_words : int }
  | Atomic of {
      op : int;
      origin : int;
      offset : int;
      kind : atomic_kind;
      extra_words : int;
    }
  | Atomic_reply of { op : int; old_value : int }
  | Accumulate of {
      op : int;
      origin : int;
      offset : int;
      aop : acc_op;
      data : int array;
          (** element-wise operands for [pub[offset..+len)]; the whole
              span is read-modified-written under one region lock hold *)
      extra_words : int;
    }
  | Acc_reply of { op : int; old : int array; extra_words : int }
      (** the values the span held {e before} the accumulate applied —
          returned so one-sided RMWs are oracle-checkable *)
  | Lock_request of { op : int; origin : int; offset : int; len : int }
  | Lock_granted of { op : int; token : int }
  | Unlock of { token : int }
  | Control of {
      op : int;
      origin : int;
      tag : string;
      words : int array;
      want_reply : bool;
    }
  | Control_reply of { op : int; words : int array }

(** The probe bus's own plain types, so the apply events carry an
    atomic's operation and an accumulate's operator as they are. *)
and atomic_kind = Dsm_obs.Probe.atomic_kind =
  | Fetch_add of int
  | Compare_and_swap of { expected : int; desired : int }

and acc_op = Dsm_obs.Probe.acc_op = Add | Min | Max | Band | Bor
    (** generalized accumulate operators (§5.2 one-sided extensions) *)

val atomic_rmw_name : atomic_kind -> string
(** ["fetch_add"] or ["cas"]: an atomic's name in the [Rmw] probe's
    [kind] and in the coherence checker's RMW violations. *)

val acc_rmw_name : acc_op -> string
(** ["acc:add"], ["acc:min"], ["acc:max"], ["acc:band"] or ["acc:bor"]:
    an accumulate's name where {!atomic_rmw_name} names an atomic. Each
    is a literal, so naming an RMW allocates nothing. *)

val apply_acc : acc_op -> int -> int -> int
(** [apply_acc aop old operand] is the serial meaning of one accumulate
    word: the value the target cell holds afterwards. *)

val apply_atomic : atomic_kind -> int -> int
(** Serial meaning of a single-word RMW: the value the cell holds after
    the operation ran against [old]. A failed compare-and-swap returns
    [old] unchanged. *)

val is_reply : t -> bool
(** [true] for messages that answer a pending operation at their
    destination (acks, replies, grants): their delivery touches only the
    destination node and {e its} initiating process, which is what the
    schedule explorer's footprint labels encode. Requests — whose
    delivery acts on behalf of the sending side's process — are [false].
    [Unlock] counts as a request: releasing may grant queued waiters. *)

val wire_words : t -> int
(** Total words the fabric should charge for this message: header plus
    payload plus [extra_words]. This is the {e nominal} size — the one
    the latency model prices — even when a framed piggyback replaces
    the clock allowance on the wire (see {!extra_words}). *)

val extra_words : t -> int
(** The nominal clock allowance [msg] carries: the [extra_words] the
    detector charged when it issued the operation (0 on messages
    without one). A framed clock piggyback replaces it in the true wire
    size, [wire_words msg - extra_words msg + frame words], which feeds
    the byte-accounting counters only; timing keeps using
    {!wire_words} so schedules are independent of the chosen encoding. *)

val fields : t -> Dsm_obs.Msg.t
(** The plain fields the probe bus's message events carry: kind, op,
    origin, offset, word counts, parts, the RMW operands or operator,
    the lock token, the locked/acked flags and the control tag. Builds
    no string. *)

val describe : t -> string
(** One-line rendering for traces and debugging:
    [Dsm_obs.Msg.label (fields msg)]. *)
