(** Named programs the explorer can drive.

    A scenario spec is a short string carried inside replay tokens:

    - ["getput"] — the built-in two-process get/put collision used by the
      planted-bug acceptance test. It reads P0's gets off the probe bus and
      flags any put applied to P0's region A inside an open get window —
      impossible under Figure 3's semantics, reachable only when the
      [Skip_get_dst_lock] protocol bug is planted.
    - ["rmwlost"] — the RMW counterpart: every process but 0 fetch_adds
      one word of node 0 at the same instant. Under constant latency
      the deliveries tie, and only the planted [Skip_rmw_write_mark]
      bug lets a tied delivery slip between an RMW's read and its
      deferred write — a lost update the coherence checker and the
      scenario's sum monitor both flag.
    - ["getput-checked"] / ["rmwlost-checked"] — the same two collisions
      with the race detector attached (Inline transport, so the data path
      — and the planted bugs — are unchanged): [getput-checked] signals
      races whose explanations name both endpoints, and [rmwlost-checked]
      stays race-silent (RMWs are S-serialized) while still violating
      under the bug, exercising the provenance-based atomicity fallback.
    - ["prog:FILE.dsm"] — a mini-language program run instrumented under
      the detector, like [dsmcheck run].
    - ["workload:NAME"] — one of the [dsm_workload] programs (random,
      master-worker, master-worker-racy, stencil, pipeline,
      locked-counter), scaled down for fast exploration.

    Building a scenario allocates the machine, attaches the coherence
    checker, spawns the processes, and returns without running: the
    explorer owns the run loop. *)

type built = {
  machine : Dsm_rdma.Machine.t;
  detector : Dsm_core.Detector.t option;
  coherence : Dsm_rdma.Coherence.t;
      (** the coherence checker, attached to every scenario; the
          explorer reports its read violations as the ["coherence"]
          invariant and its RMW serial-specification violations
          (none when the run performs no RMWs) as the
          ["rmw-linearizability"] invariant *)
  monitor : unit -> (string * string) list;
      (** scenario-specific invariant violations observed during the run,
          as [(invariant, detail)] pairs; call after the run *)
}

val known : string list
(** Spec forms, for help text. *)

type plan
(** A prepared scenario: spec parsed, program (for [prog:FILE]) read and
    compiled, [workload:random]'s op sequences drawn, process count
    validated — everything machine-independent done once. The explorer
    prepares a plan per worker and then populates a machine per run,
    fresh or recycled. *)

val prepare : Token.spec -> plan
(** The spec's [scenario], [n] and (for workloads) [seed] pick and size
    the program; its [latency], [model], [faults], [reliable] and [bug]
    build the machine. [latency] [Constant] makes message deliveries tie
    and blows the scheduling tree wide open, which is exactly what the
    DPOR experiments want. [model] selects the memory-model backend for
    both the machine's protocol hooks and the detector's happens-before
    edges — it changes schedules, fingerprints and race verdicts, which
    is why replay tokens carry it. [bug] plants the protocol-defect
    family ([Skip_get_dst_lock] and [Skip_rmw_write_mark] — each inert
    on scenarios that never exercise the affected path). Raises
    [Invalid_argument] on an unknown scenario, an unparsable program,
    or a process count below {!min_procs} — the validation that lets
    [dsmcheck explore --replay] reject a token whose declared process
    count mismatches the scenario instead of misbehaving. *)

val min_procs : string -> int
(** The fewest processes the program named [s] runs on: 1 for
    [prog:FILE], 3 for the racy rings [workload:scale] and
    [workload:scale-batched], 2 for every other name. The one table of
    process minimums: {!prepare} reads it, and so do the one-shot
    commands under the same names ([workload:NAME], [prog:FILE], and
    [scale] for the plain ring). *)

val procs : plan -> int
(** The effective process count: the spec's [n]. *)

val instantiate : plan -> Dsm_sim.Engine.t -> built
(** Build a fresh machine on [sim] and populate it: allocate, attach the
    coherence checker (and detector where the scenario uses one), spawn
    the processes. Returns without running — the explorer owns the run
    loop. *)

val repopulate : plan -> Dsm_rdma.Machine.t -> built
(** Arena reuse: [Machine.reset] the machine from a previous run of the
    same plan, then populate it exactly as {!instantiate} does. Must be
    called {e after} [Engine.reset] on the owning engine (see
    [Machine.reset]); the result is bit-identical to a fresh
    instantiation. *)
