(** The schedule explorer: systematic testing of the coherence protocol
    and the detector on top of [Dsm_sim.Engine].

    A run is a pure function of [(spec, schedule decisions)]: the engine
    seed fixes every PRNG stream (latency jitter, fault draws, workload
    generators), and the decision list fixes which of the same-instant
    ready events fires at each scheduler choice point
    ([Engine.set_chooser]). The explorer drives many such runs —
    randomized walks or a bounded-exhaustive enumeration of decision
    prefixes — and checks protocol invariants after each:

    - {b completion}: a run under a fault-free fabric, or under the
      reliable transport, must complete (no wedged protocol);
    - {b quiescence}: on completion no operation still awaits a reply
      and every NIC region lock has been released;
    - {b coherence}: the shadow-memory checker stays clean;
    - {b clock-monotonicity}: sampled per-process detector clocks only
      ever grow ([Vector_clock.leq]);
    - {b determinism}: replaying the recorded decisions reproduces every
      value the run fingerprint renders — outcome, final time (exactly),
      event and race counts, each race field by field (time exactly,
      clocks by value), coherence violation count, monitor report;
    - plus any scenario-specific monitor (e.g. ["getput"]'s
      get-window atomicity).

    A violation is condensed into a {!Token.t} that {!replay} re-executes
    deterministically, after {!minimize} has shrunk the schedule prefix. *)

type spec = Token.spec
(** The one description of a run — see {!Token.spec}. *)

val default_spec : spec
(** {!Token.default_spec}. *)

type outcome = Completed | Blocked of int | Event_limit | Crashed of string

type violation = { invariant : string; detail : string }

type run_result = {
  outcome : outcome;
  sim_time : float;
  events : int;
  decisions : int list;  (** the schedule actually taken, replayable *)
  choices : (int * int) list;  (** [(ready, chosen)] per choice point *)
  fingerprint : string;
      (** digest of outcome, times, detector report and monitor output —
          equal iff two runs are observably identical *)
  canon : string;
      (** order-insensitive summary — outcome, violated-invariant set,
          raced-granule set, no times or counts — equal for any two
          schedules that are Mazurkiewicz-trace equivalent; what the
          {!Dpor} soundness suite compares *)
  races : int;
  retransmits : int;
  violations : violation list;  (** empty = all invariants held *)
}

type mode = Walk of int | Script of int list
(** [Walk i] draws decisions from a PRNG derived from [(seed, i)];
    [Script ds] follows a recorded decision list (0 past its end). *)

(** {2 Reusable arenas}

    A {!ctx} owns everything a sequence of runs of one spec needs — the
    engine, the machine with its detector, monitor and coherence
    checker, the compiled scenario plan, the decision-recording buffers
    — and resets it in place between runs instead of rebuilding. A run
    in a reused ctx is bit-identical to one in a fresh ctx. Each ctx
    belongs to one domain; the parallel driver ({!Parallel}) gives every
    worker its own. *)

type ctx

val create_ctx : ?metrics:Dsm_obs.Metrics.t -> spec -> ctx
(** Prepares the scenario (parsing/compiling a [prog:FILE] once) and
    builds the arena, which the first run uses as it is. The arena's
    own sinks (the scenario's monitor, the coherence checker) are
    attached here, so they run before any sink a caller attaches to
    {!ctx_probe}. Raises [Invalid_argument] ([Sys_error] for an
    unreadable program file) on an invalid spec — including a process
    count below the scenario's minimum.

    With [metrics], a {!Dsm_obs.Meter} is attached to the arena engine's
    probe bus, so every run executed in this ctx is counted into the
    registry (reset it between batches with {!Dsm_obs.Metrics.reset}).
    Telemetry is read-only with respect to the simulation: findings and
    fingerprints are bit-identical with or without it. *)

val ctx_probe : ctx -> Dsm_obs.Probe.t
(** The arena engine's probe bus — attach extra sinks (e.g. a
    {!Dsm_obs.Timeline}) before running; the bus survives the arena's
    per-run resets. *)

val ctx_spec : ctx -> spec
(** The spec this arena was created for. *)

val last_built : ctx -> Scenario.built option
(** The machine/detector/monitor set of the most recent run executed in
    this arena ([None] before the first run) — post-run inspection for
    race explanations: the detector's report and provenance describe
    exactly that run until the next one starts. *)

val set_ready_log : ctx -> Ready_log.t option -> unit
(** Install (or remove) a {!Ready_log} on the arena: every subsequent
    run records its choice-point ready views and chained-grant samples
    into it, rewinding the log per run. Recording is read-only with
    respect to the simulation — findings stay bit-identical. With the
    determinism check enabled the log ends up describing the {e replay}
    run; the DPOR driver runs with the check off. *)

val run_once_in : ?check_determinism:bool -> ctx -> mode -> run_result
(** One run in a reusable arena. With [check_determinism] (default
    false) the run is re-executed from its recorded decisions and a
    ["determinism"] violation is added if the replay differs from the
    run on any value the fingerprint renders (see the invariant list
    above); its detail names both runs' fingerprints. *)

val run_once : spec -> mode -> run_result
(** {!run_once_in} a fresh arena, without the determinism check. *)

type stats = {
  runs : int;  (** schedules executed *)
  violated : int;
  first : (mode * run_result) option;  (** first violating run, if any *)
}

val explore_random_in :
  ?check_determinism:bool -> ?stop_on_first:bool -> ctx -> runs:int -> stats
(** Randomized-walk exploration: up to [runs] schedules, each under an
    independent decision stream. [check_determinism] defaults to [true]
    here (it doubles the cost but every schedule is cheap);
    [stop_on_first] (default [true]) returns at the first violation.
    The walk loop is allocation-tight: per-run results are kept in the
    arena's reusable buffers and a full {!run_result} is only
    materialized for the first violating run. *)

val explore_exhaustive_in : ?max_runs:int -> ctx -> depth:int -> stats
(** Bounded-exhaustive enumeration ({!dfs_in}): all decision prefixes
    that deviate from the default schedule within the first [depth]
    choice points, capped at [max_runs] (default 500) schedules. Stops
    at the first violation. *)

val minimize : ?metrics:Dsm_obs.Metrics.t -> spec -> int list -> int list
(** Greedy shrink of a violating decision list: binary-search the
    shortest violating prefix, then zero individual decisions, keeping
    every change under which the spec still violates. The result is
    guaranteed to still violate. With [metrics], probe runs are counted
    (including ["explore.minimize_steps"]). *)

val replay : ?probe:(Dsm_obs.Probe.t -> unit) -> Token.t -> (run_result, string) result
(** Deterministic re-execution of a token's run. [Error msg] — instead
    of an exception — when the token cannot be instantiated: unknown
    scenario, unreadable program file, or a declared process count below
    the scenario's minimum (e.g. a hand-edited [n=1] on [getput]).
    [probe] receives the replay arena's bus before the run executes —
    the hook for timeline capture of a repro token. *)

(** {2 Exploration internals}

    The raw per-run interface shared with {!Parallel}: a run summary
    whose schedule stays in the arena's buffers. Not intended for
    end-user code — the stable surface is {!run_once} /
    {!explore_random_in} / {!explore_exhaustive_in} above. *)

type raw
(** Outcome, violations and every value the fingerprint and canon are
    built from, captured when the run ended; neither digest is built
    until asked for. The decision trace lives in the ctx until the next
    run. *)

val exec_checked : ?check_determinism:bool -> ctx -> mode -> raw
(** One run in the arena ([check_determinism] defaults to [false]). *)

val raw_violating : raw -> bool

val raw_canon : raw -> string
(** The run's canonical (order-insensitive) fingerprint, built on each
    call; see {!run_result.canon}. Valid after later runs in the ctx. *)

val result_of : ctx -> raw -> run_result
(** Materialize the full result, building its fingerprint and canon.
    Decisions and choices are read from the arena, so they are only
    valid before the ctx's next run; the digests are valid after it. *)

val last_choice_points : ctx -> int
(** Choice points recorded by the ctx's most recent run. *)

val last_chosen_at : ctx -> int -> int
(** Decision taken (after clamping) at choice point [p] of the most
    recent run. *)

val last_children : ctx -> plen:int -> depth:int -> int list list
(** Decision prefixes deviating from the ctx's most recent run at choice
    points [plen, depth), in canonical order (deviation position
    ascending, then branch ascending). Both the sequential DFS and the
    parallel subtree partition enumerate through this one function; the
    shared order is what makes the parallel merge bit-identical. *)

val dfs_in :
  ctx ->
  root:'node ->
  prefix:('node -> int list) ->
  until:(unit -> bool) ->
  ('node -> raw -> 'node list) ->
  unit
(** The one prefix-stack DFS over schedules. Starting from a stack
    holding [root], it pops a node, asks [until ()] (the search ends
    when it holds, or when the stack is empty), runs [prefix node] as a
    [Script] in [ctx], and pushes the nodes [step node raw] returns
    ahead of the rest of the stack, in the order given. [step] runs
    while the arena still holds that run, so it may read
    {!last_children} or {!result_of}. {!explore_exhaustive_in}, the
    parallel subtree search, [Diff.run ~depth] and the DPOR search
    (whose nodes carry sleep sets) are all this loop. No run is
    re-executed for the determinism check. *)

val pp_violation : Format.formatter -> violation -> unit

val pp_result : Format.formatter -> run_result -> unit
