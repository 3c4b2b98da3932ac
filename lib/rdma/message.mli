(** The NIC protocol's wire messages and their meaning.

    The message type is {!Dsm_obs.Wire.t}, included here with its
    constructors (the protocol of §3.2: puts, gets, RMWs, the NIC lock
    service and the control extension point); this module adds what the
    protocol computes from a message: its size on the wire, whether it
    answers a pending operation, and the serial meaning of its RMWs. *)

include module type of struct
  include Dsm_obs.Wire
end

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

val describe : t -> string
(** One-line rendering for traces and debugging: {!Dsm_obs.Msg.label}. *)
