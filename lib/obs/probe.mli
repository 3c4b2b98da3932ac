(** The typed probe bus: the live-telemetry emit points of the whole
    stack.

    Every simulation ([Dsm_sim.Engine.t]) owns exactly one bus; the
    components built on top of it — fabric, RDMA machine, coherence
    checker, race detector, schedule explorer — all publish onto that
    one bus, so it is the one event history of a run. What the target
    NIC applies under its region lock (the [apply] class) travels here
    too, and the coherence checker reads it like any other sink.

    Every event belongs to one {!classes} bit, and a sink names the
    classes it reads when it attaches. The bus keeps one bit per class
    in one int ([on]), and an emit site guards on its class bit:

    {[ if probe.on land Probe.net <> 0 then Probe.emit probe (Net_send {...}) ]}

    So a site whose class nobody reads costs one load, one [land] and
    one branch, and never allocates its event. The benchmark suite's
    [probe_disabled_overhead] row holds this to ≤ 3% of a
    detector-check-shaped hot loop ([bench/main.ml]). No event is
    emitted per engine step: the engine's event total rides on
    [Engine_quiescence] and the explorer's [Run_end].

    Events are plain data — ints, floats, strings, bools, int arrays
    and records of them, never closures or [Lazy.t] — so [=] and
    [compare] work on them: the flight recorder's tests compare two
    runs' windows with [=]. Emit sites format nothing; a consumer that
    prints a message renders its label with {!Msg.label} when it prints.

    Sinks must be read-only observers: they run synchronously inside the
    simulation's hot paths and must not touch engine state, PRNG
    streams, or scheduling — the explorer's QCheck suite checks that
    attaching a sink never changes a run's fingerprint. The bus lives as
    long as its engine: [Engine.reset] and [Machine.reset] keep every
    sink, so a per-run consumer is attached once and reset per run. *)

include module type of struct
  include Probe_types
end

(** {1 Classes}

    Each event belongs to one class: [engine] (the [Engine_*] events),
    [net] (the [Net_*] events and [Retransmit]), [op] ([Op_begin],
    [Op_end], [Batch_flush]), [msg] ([Msg_sent], [Msg_delivered]),
    [lock], [rmw], [apply] (what a target NIC applied), [coherence],
    [check] ([Detector_check], [Clock_merge]), [race] ([Race_signal]),
    [run_begin] ([Run_begin] alone, so a per-run sink can reset on it)
    and [explore] (the explorer's other events). *)

type classes = int
(** A set of classes, one bit each; union them with [lor]. *)

val engine : classes
val net : classes
val op : classes
val msg : classes
val lock : classes
val rmw : classes
val apply : classes
val coherence : classes
val check : classes
val race : classes
val run_begin : classes
val explore : classes
val all : classes

(** {1 The bus} *)

type t = private {
  mutable on : classes;
      (** the attached sinks' classes; hot paths read it directly *)
  sinks : (event -> unit) array array;  (** per class, in attach order *)
}

val create : unit -> t
(** A bus with no sinks: [on = 0], every guarded emit site a no-op. *)

val attach : t -> classes -> (event -> unit) -> unit
(** [attach t classes sink] subscribes [sink] to the events of
    [classes], after the class's earlier sinks. Raises
    [Invalid_argument] when [classes] is empty. *)

val emit : t -> event -> unit
(** Deliver [event] to the sinks subscribed to its class. Callers guard
    with the class bit {e before} building the event, so a class nobody
    reads costs nothing. *)
