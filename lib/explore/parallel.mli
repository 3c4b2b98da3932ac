(** Domain-parallel schedule exploration over a persistent worker pool.

    Stateless exploration of the deterministic seeded simulator is
    embarrassingly parallel: a run is a pure function of
    [(spec, decision source)], so worker domains share no simulation
    state — each owns a private [Explore.ctx] arena (engine, machine,
    buffers all reused across its runs) and coordination is a handful of
    atomics: both drivers claim work from one shared counter, walks
    [chunk] indices at a time and DFS subtrees one rank at a time. No
    domainslib.

    The fixed costs that used to make [jobs > 1] a net slowdown on
    short batches are paid once per session, not per batch or per run:
    a {!Pool} spawns its domains once and parks them between jobs, each
    worker's arena stays hot across batches, and walk indices are
    claimed in chunks (default 64) so the shared claim counter is
    touched ~1/chunk times per run.

    {b Determinism guarantee}: for a fixed spec, every [~jobs] and every
    [?chunk] value — including pools of size 1, which delegate to the
    sequential explorer — and every [max_runs], [0] included, produces
    the same [Explore.stats]: same run count, same violation count, same
    first violation (mode, fingerprint, decisions). Random walks merge
    on the minimum violating walk index (chunk remainders are only ever
    discarded above the current best index, which only decreases); the
    DFS partitions the search into first-level subtrees and merges
    per-subtree summaries in the sequential visit order (canonical child
    order, see [Explore.last_children]), applying the run cap exactly
    where the sequential search would. Scheduling races affect only which
    already-doomed work gets discarded, never the reported result.

    Repro tokens harvested from a parallel exploration replay
    single-threaded ([Explore.replay]) by construction — a token never
    records how it was found. *)

(** A persistent pool of worker domains plus one hot [Explore.ctx]
    arena per worker. Open one per explore session with
    {!Pool.with_pool} and pass it to any number of {!explore_random} /
    {!explore_exhaustive} batches. *)
module Pool : sig
  type t

  val with_pool : jobs:int -> (t -> 'a) -> 'a
  (** [with_pool ~jobs f] spawns
      [min jobs (Domain.recommended_domain_count ())] workers (at least
      1; the calling domain is worker 0, so one domain fewer is
      spawned), runs [f], and always wakes and joins every worker
      afterwards. Clamping to the host's core count is
      semantically invisible — findings are bit-identical for every
      pool size — and keeps oversubscribed [--jobs] from thrashing a
      small machine. *)
end

val explore_random :
  ?check_determinism:bool ->
  ?stop_on_first:bool ->
  ?metrics:Dsm_obs.Metrics.t ->
  ?progress:(runs:int -> violated:int -> unit) ->
  ?chunk:int ->
  ?pool:Pool.t ->
  jobs:int ->
  Explore.spec ->
  runs:int ->
  Explore.stats
(** Random walks [0, runs) fanned out over the pool, walk indices
    claimed [chunk] (default 64) at a time with one fetch-and-add per
    chunk. Raises [Invalid_argument] if [chunk < 1]. Defaults match
    [Explore.explore_random_in] ([check_determinism = true],
    [stop_on_first = true]). With [stop_on_first], a worker that reaches
    an index above the best violating index found so far stops claiming
    and discards the rest of its chunk; the reported stats are those of
    the lowest violating index, exactly as the sequential loop reports.

    With [pool], batches reuse its spawned domains and hot arenas and
    [jobs] is ignored; without it a throwaway pool of [jobs] workers is
    created and shut down around the batch. A pool of size 1 runs
    sequentially (in worker 0's arena).

    With [metrics], every worker meters its own runs into a private
    per-slot registry; after the batch the caller folds the private
    registries into [metrics] and resets them. The fold is
    order-insensitive, so the aggregate is deterministic even though
    worker completion order is not — and telemetry never touches
    simulation state, so findings stay bit-identical for every [jobs].

    [progress] is invoked from worker domains after every completed run
    with the shared completion counters (multi-domain path only; in a
    size-1 pool the sequential explorer runs and [progress] is unused).
    It must be domain-safe and fast — e.g. a rate-limited stderr
    heartbeat. *)

val explore_exhaustive :
  ?max_runs:int ->
  ?metrics:Dsm_obs.Metrics.t ->
  jobs:int ->
  Explore.spec ->
  depth:int ->
  Explore.stats
(** Bounded-exhaustive DFS with the first-level decision subtrees
    claimed one at a time by pool workers, each searched by
    [Explore.dfs_in] (without the determinism re-check, and [max_runs]
    defaulting to 500, as sequentially). The root runs first, under the
    same cap. Workers stop claiming, and abort a subtree, once a
    lower-ranked subtree has violated; the merge replays the sequential
    visit order over the per-subtree summaries, so the result —
    including the [max_runs] cutoff — is bit-identical to
    [Explore.explore_exhaustive_in]. The batch runs on a pool of [jobs]
    workers created and shut down around it. [metrics] aggregates
    per-worker registries as in {!explore_random}; note that the
    aggregate counts every run workers actually executed, including
    subtree work the deterministic merge later discards. *)
