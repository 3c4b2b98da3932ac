(** The typed probe bus: the live-telemetry emit points of the whole
    stack.

    Every simulation ([Dsm_sim.Engine.t]) owns exactly one bus; the
    components built on top of it — fabric, RDMA machine, coherence
    checker, race detector, schedule explorer — all publish onto that
    one bus, so it is the one event history of a run. What the target
    NIC applies under its region lock (the [apply] and [rmw] classes)
    travels here too, and the coherence checker reads it like any other
    sink.

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

    An event carries no time: every event happens at the engine's
    current instant, so the engine hands its bus its clock once, and a
    sink reads {!now} while an event is delivered to it.

    Events are plain data — ints, floats, strings, bools, int arrays
    and records of them, never closures or [Lazy.t] — so [=] and
    [compare] work on them: the flight recorder's tests compare two
    runs' windows with [=]. Emit sites copy and format nothing: a message
    event carries the protocol's own {!Wire.t}, and a consumer that
    prints it renders its label with {!Msg.label} when it prints.

    Sinks must be read-only observers: they run synchronously inside the
    simulation's hot paths and must not touch engine state, PRNG
    streams, or scheduling — the explorer's QCheck suite checks that
    attaching a sink never changes a run's fingerprint. The bus lives as
    long as its engine: [Engine.reset] and [Machine.reset] keep every
    sink, so a per-run consumer is attached once and reset per run. *)

include module type of struct
  include Probe_types
end

val atomic_name : Wire.atomic_kind -> string
val acc_name : Wire.acc_op -> string
val acc_op_name : Wire.acc_op -> string
(** An RMW's name as traces, explanations and the coherence checker
    print it: ["fetch_add"] or ["cas"] for an atomic, ["acc:add"] …
    ["acc:bor"] for an accumulate; [acc_op_name] is the bare operator
    (["add"] …) of a protocol message's label. Each is a literal, so
    naming an RMW allocates nothing. *)

(** {1 Classes}

    Each event belongs to one class: [engine] (the [Engine_*] events),
    [net] (the [Net_*] events and [Retransmit]), [op] ([Op_begin],
    [Op_end], [Batch_flush]), [msg] ([Msg_sent], [Msg_delivered], each
    holding the wire message the NIC sent or handled),
    [lock], [rmw] ([Atomic_applied], [Acc_applied]: an RMW a target
    NIC committed), [apply] ([Write_applied], [Read_served]: the other
    memory effects a NIC applied), [coherence],
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
  clock : float ref;  (** the owning engine's clock; sinks only read it *)
}

val create : clock:float ref -> t
(** A bus with no sinks: [on = 0], every guarded emit site a no-op.
    [clock] is the owning engine's simulated time ([Dsm_sim.Engine]
    passes its own cell, once), which {!now} reads. *)

val now : t -> float
(** The simulated time, in microseconds, at which the event being
    delivered happened: a sink calls it while it handles the event. *)

val attach : t -> classes -> (event -> unit) -> unit
(** [attach t classes sink] subscribes [sink] to the events of
    [classes], after the class's earlier sinks. Raises
    [Invalid_argument] when [classes] is empty. *)

val emit : t -> event -> unit
(** Deliver [event] to the sinks subscribed to its class. Callers guard
    with the class bit {e before} building the event, so a class nobody
    reads costs nothing. *)
