(** The NIC protocol's wire message, defined once: [Dsm_rdma.Message]
    includes it with its protocol functions, and the probe bus's
    [Msg_sent]/[Msg_delivered] events carry it as it is. Types only;
    {!Msg.label} renders one.

    The protocol implements §3.2 of the paper: [Put] carries the data in
    a single message; [Get]/[Get_reply] form the two-message read.
    Remote accesses always target the destination's {e public} segment —
    the private segment is not remotely addressable (Figure 1), so
    messages carry bare offsets.

    [locked = true] asks the target NIC to take its range lock around the
    access (the atomicity of §3.2); [locked = false] serves the data
    verbs run [~locked:false] inside detector transactions that already
    hold the locks (Algorithms 1–2).

    [Lock_request]/[Lock_granted]/[Unlock] expose the NIC lock service
    to remote initiators, and [Control]/[Control_reply] is the extension
    point upper layers (race-detector metadata, PGAS collectives) use
    without teaching the NIC their semantics.

    [extra_words] on data messages models piggybacked metadata (e.g.
    vector clocks): it inflates the wire size without being part of the
    user payload.

    A message is plain data (ints, strings, int arrays), so [=] and
    [compare] read it like the rest of a probe event. *)

(** A single-word RMW's operation. *)
type atomic_kind =
  | Fetch_add of int
  | Compare_and_swap of { expected : int; desired : int }

(** Generalized accumulate operators (§5.2 one-sided extensions). *)
type acc_op = Add | Min | Max | Band | Bor

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
