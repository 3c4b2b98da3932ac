(** Fault plans: configurable message loss, duplication, delay and
    reordering, per directed link.

    The coherence protocol of the paper assumes the reliable in-order
    delivery an RDMA fabric provides; a fault plan removes that
    assumption so the retry/ack transport of {!Fabric} can be
    exercised — and so the schedule explorer ([dsm_explore]) can drive
    the protocol through lossy, jittered and reordered executions.

    Every fault decision is drawn from the fabric's own split of the
    engine PRNG, so a run remains a pure function of (seed, schedule,
    plan): the property replay tokens rely on. *)

type link = {
  drop : float;  (** probability a message is lost in transit *)
  duplicate : float;  (** probability a message is delivered twice *)
  reorder : float;
      (** probability a message bypasses FIFO ordering and is held back
          by an extra uniform delay in [0, reorder_window] *)
  jitter : float;
      (** mean of an exponential extra delay added to every message
          (0 = no jitter) *)
  reorder_window : float;  (** holdback window for reordered messages, us *)
}

type t

val none : t
(** The fault-free plan (the default everywhere). *)

val is_none : t -> bool

val link : t -> src:int -> dst:int -> link
(** The effective config for a directed link. *)

(** {1 The fault-plan grammar}

    ["drop=0.1,dup=0.05,reorder=0.2,jitter=1.5,window=8"] sets the
    default link; a ["src>dst:"] prefix overrides one directed link
    (["0>1:drop=0.5"]). [""] and ["none"] denote {!none}. This is the
    form embedded in replay tokens and accepted by
    [dsmcheck explore --faults]. *)

val of_string : string -> t
(** Raises [Invalid_argument] on a malformed plan, including a
    probability outside [0,1], a negative delay or a negative node. *)

val parse : string -> (t, string) result
(** {!of_string} with the malformed plan's message as [Error]: what the
    token codec and [dsmcheck explore --faults] read. *)

val to_string : t -> string
(** Round-trips through {!of_string} exactly. *)
