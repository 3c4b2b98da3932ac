(** Deterministic discrete-event simulation engine.

    Simulated processes are ordinary OCaml functions running as effect-based
    coroutines: they suspend with {!await} / {!sleep} and are resumed by
    scheduled events. Events fire in [(time, sequence)] order: those for
    a later instant wait in a heap, those for the current instant in a
    FIFO beside it. So a simulation is a pure function of its seed and
    its program — the property every race-detection experiment in this
    repository relies on for reproducibility.

    The engine knows nothing about networks, memory or clocks; those live in
    [dsm_net], [dsm_memory], [dsm_rdma]. *)

type t

exception Process_failure of string * exn
(** Raised out of {!run} when a spawned process raises: carries the process
    name and the original exception. *)

val create : ?seed:int -> unit -> t
(** [create ~seed ()] is an empty simulation at time 0. The seed (default
    [0x5eed]) drives {!rng} and everything derived from it. *)

val reset : ?seed:int -> t -> unit
(** [reset ~seed sim] puts [sim] back in the [create ~seed ()] state
    without reallocating: time, counters and the failure slot are zeroed,
    the chooser is uninstalled, the event queues are emptied (capacity kept),
    and {!rng} is reseeded in place. Suspended processes from the previous
    run are dropped along with their pending events. The arena-reuse hook
    of the [dsm_explore] driver: a fresh [create] and a [reset] engine are
    observationally identical. *)

val now : t -> float
(** Current simulated time. *)

val rng : t -> Prng.t
(** The simulation's root generator. Components should {!Prng.split} it at
    setup time rather than share it at run time. *)

val probe : t -> Dsm_obs.Probe.t
(** The simulation's telemetry bus. Every component built on this engine
    (fabric, RDMA machine, coherence checker, detector, explorer)
    publishes its probe events here, so the bus is a run's one event
    history. The bus — and any attached sinks — survives {!reset}:
    telemetry spans every run of an arena-reused engine. Emits are
    guarded by their class bit ([if (probe sim).on land c <> 0 then
    ...]), so a class no sink reads costs one load, one [land] and one
    branch per emit site. *)

val schedule : t -> ?delay:float -> ?label:Label.t -> (unit -> unit) -> unit
(** [schedule sim ~delay ~label f] runs [f] at [now sim +. delay] (default
    [0.], i.e. later in the current instant). [label] (default
    {!Label.unknown}) declares the event's footprint for schedule
    exploration; it never affects ordering. Raises [Invalid_argument] on
    a negative delay. *)

val schedule_at : t -> at:float -> label:Label.t -> (unit -> unit) -> unit
(** Absolute-time variant, with the footprint required ({!Label.unknown}
    when there is none) so the per-frame callers allocate no option box.
    Raises [Invalid_argument] when [at < now]. *)

val spawn : t -> ?name:string -> ?label:Label.t -> (unit -> unit) -> unit
(** [spawn sim ~name body] creates a process whose [body] starts now,
    later in the current instant. The body may use {!await} and
    {!sleep}. Failures name it [name]; an unnamed process is
    ["P<node>"] when its [label] is known ({!Label.node}), else
    ["process"], formatted only when a failure is reported.
    An exception escaping [body] aborts the simulation with
    {!Process_failure}. *)

val await : t -> (('a -> unit) -> unit) -> 'a
(** [await sim register] suspends the calling process. [register] receives
    a one-shot [resume] function; whoever calls [resume v] (typically an
    event scheduled by another component) makes [await] return [v].
    Calling [resume] twice raises [Failure] naming the process. If
    [register] raises before calling [resume], [await] raises that
    exception in the process; if it raises after, the process has already
    run on, and the exception leaves the event that was running the
    process. Only valid inside a spawned process. *)

val sleep : ?label:Label.t -> t -> float -> unit
(** [sleep sim dt] suspends the calling process for [dt] simulated time.
    [label] is the footprint of the wake-up event. *)

type outcome =
  | Completed                 (** no event left, every process finished *)
  | Blocked of int            (** no event left, [k] processes suspended
                                  forever — e.g. a lock deadlock *)
  | Time_limit_reached        (** never produced: {!run} has no time
                                  horizon. Kept for matches outside
                                  [lib/] that still name it. *)
  | Event_limit_reached       (** stopped after [max_events] events *)
  | Stopped                   (** never produced: the engine has no
                                  stop request. Kept for matches outside
                                  [lib/] that still name it. *)

val run : ?max_events:int -> t -> outcome
(** Executes events in order until no event is left or [max_events]
    events have fired.

    A process body that raises surfaces as {!Process_failure} — raised by
    the run loop {e after} the current event action has finished, so
    sibling callbacks fired by the same event (queued lock grants, other
    ivar waiters) still run and the queues stay consistent: the engine can
    keep being {!run} after catching the failure. *)

val set_chooser : t -> (int -> int) option -> unit
(** [set_chooser sim (Some f)] turns ties on simulated time into explicit
    scheduler choice points: whenever [k >= 2] events are ready at the
    next instant, [f k] picks which fires (0 is the default
    schedule-order event; out-of-range picks are clamped). The hook of
    the [dsm_explore] schedule explorer. [None] (the default) restores
    the deterministic [(time, seq)] order — the production path is
    untouched. *)

val set_choice_view : t -> ((int * Label.t) array -> unit) option -> unit
(** [set_choice_view sim (Some view)] observes every choice point: just
    before the chooser runs, [view] receives the ready set's
    [(seq, label)] pairs sorted by sequence number — index-aligned with
    the [k] the chooser returns. Only fires while a chooser is installed
    and [ready >= 2], i.e. exactly when the chooser fires. Cleared by
    {!reset} and ignored on the production path. The footprint feed of
    the [dsm_explore] DPOR layer. *)

val events_processed : t -> int
