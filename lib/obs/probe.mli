(** The typed probe bus: the live-telemetry emit points of the whole
    stack.

    Every simulation ([Dsm_sim.Engine.t]) owns exactly one bus; the
    components built on top of it — fabric, RDMA machine, coherence
    checker, race detector, schedule explorer — all publish onto that
    one bus, so attaching a single sink observes a run end to end.

    The bus is engineered to vanish when nobody listens. Emit sites are
    written as

    {[ if (Probe.bus sim).on then Probe.emit bus (Probe.Net_send {...}) ]}

    so with no sink attached the cost per site is one field load and one
    conditional branch — the event payload is never even allocated. The
    benchmark suite's [probe_disabled_overhead] row holds this to ≤ 3%
    of a detector-check-shaped hot loop ([bench/main.ml]). No event is
    emitted per engine step: the engine's event total rides on
    [Engine_quiescence] and the explorer's [Run_end]. A protocol message
    is published only here, never as a machine observation.

    Events are plain data — ints, floats, strings, bools and records of
    them, never closures or [Lazy.t] — so [=] and [compare] work on them:
    the flight recorder's tests compare two runs' windows with [=]. Emit
    sites format nothing; a consumer that prints a message renders its
    label with {!Msg.label} when it prints.

    Sinks must be read-only observers: they run synchronously inside the
    simulation's hot paths and must not touch engine state, PRNG
    streams, or scheduling — the explorer's QCheck suite checks that
    attaching a sink never changes a run's fingerprint. *)

(** One telemetry event. Times are simulated microseconds. *)
type event =
  | Engine_choice of { time : float; ready : int; chosen : int }
      (** a scheduler tie turned into an explicit choice point *)
  | Engine_quiescence of { time : float; events : int; outcome : string }
      (** the run loop reached a terminal outcome (completed/blocked);
          [events] is the engine's event total since its last reset *)
  | Net_send of {
      time : float;
      src : int;
      dst : int;
      words : int;
      wire_words : int;
      clock_words : int;
      arrival : float;
    }
      (** [words] is the nominal size the latency model priced;
          [wire_words] the size the chosen encoding actually shipped
          (of which [clock_words] were clock piggyback); [arrival] the
          time the delivery was scheduled for, after the FIFO floor and
          any reorder delay (a dropped frame's would-be arrival) *)
  | Net_deliver of { time : float; src : int; dst : int }
  | Net_drop of { time : float; src : int; dst : int }
  | Net_duplicate of { time : float; src : int; dst : int }
  | Net_reorder of { time : float; src : int; dst : int }
  | Op_begin of { time : float; pid : int; op : int; kind : string; target : int }
      (** a one-sided operation ([kind] put/get/atomic/lock) left [pid] *)
  | Op_end of { time : float; pid : int; op : int; kind : string }
  | Msg_sent of { time : float; src : int; dst : int; msg : Msg.t }
      (** protocol message handed to the fabric. [msg] holds its plain
          fields, not a formatted label: consumers that print it call
          {!Msg.label}. [msg.op] is the issuing operation id, so a send
          can be paired with its delivery. *)
  | Msg_delivered of { time : float; src : int; dst : int; msg : Msg.t }
  | Lock_acquired of {
      time : float;
      pid : int;
      node : int;
      offset : int;
      len : int;
    }
  | Lock_released of {
      time : float;
      pid : int;
      node : int;
      offset : int;
      len : int;
    }
  | Retransmit of { time : float; src : int; dst : int; seq : int }
      (** reliable transport resent an unacked frame *)
  | Batch_flush of {
      time : float;
      pid : int;
      node : int;
      kind : string;
      parts : int;
      words : int;
    }
      (** batched coherence flushed [parts] coalesced ops ([kind]
          put/get) totalling [words] data words towards [node] *)
  | Rmw of {
      time : float;
      node : int;
      origin : int;
      offset : int;
      len : int;
      kind : string;
    }
      (** a one-sided RMW ([kind] fetch_add/cas/acc:<op>) from [origin]
          was applied at [node]'s NIC — the operation's linearization
          point, emitted while the region lock is still held *)
  | Coherence_violation of {
      time : float;
      node : int;
      offset : int;
      origin : int;
    }
  | Detector_check of { time : float; pid : int; kind : string; fast_path : bool }
      (** one checked access; [fast_path] = the accessor clock was still
          an O(1) epoch when the check began *)
  | Race_signal of {
      time : float;
      pid : int;
      node : int;
      offset : int;
      len : int;
      kind : string;
      against : string;
    }
      (** [kind] is the flagged access ("read"/"write"/"atomic-update"),
          [against] the incomparable granule clock it lost to ("general"
          for V, "write" for W) — mirrors [Report.race] so sinks need not
          re-join against the report *)
  | Clock_merge of { time : float; pid : int }
      (** the accessor absorbed observed clocks (read/atomic/barrier) *)
  | Run_begin of { run : int }  (** explorer: schedule [run] starting *)
  | Run_end of { run : int; events : int; violating : bool }
  | Violation of { run : int; invariant : string }
  | Domain_claim of { domain : int; first_run : int; count : int }
      (** parallel explorer: worker [domain] claimed the chunk of walks
          [\[first_run, first_run + count)] with one fetch-and-add *)
  | Dpor_prune of { point : int; branch : int }
      (** DPOR: the child deviating at choice point [point] with branch
          [branch] was pruned — its event is in the sleep set, so an
          explored representative covers its whole subtree *)
  | Minimize_step of { len : int; violating : bool }

type t = {
  mutable on : bool;
      (** [true] iff at least one sink is attached. Read this field
          directly in hot paths (single load + branch); treat it as
          read-only — it is maintained by {!attach}. *)
  mutable sinks : (event -> unit) array;
}

val create : unit -> t
(** A bus with no sinks: [on = false], every guarded emit site a no-op. *)

val attach : t -> (event -> unit) -> unit
(** Subscribe a sink (sinks run in attach order). Sets [on]. *)

val emit : t -> event -> unit
(** Deliver [event] to every sink. Callers are expected to guard with
    [t.on] {e before} building the event, so a silent bus costs nothing. *)
