(** Sleep-set dynamic partial-order reduction over the explorer's
    bounded-exhaustive DFS.

    The search is the explorer's one DFS loop ({!Explore.dfs_in}) over
    the same first-deviation tree as {!Explore.explore_exhaustive_in} —
    same children, same canonical order — with a sleep set carried in
    each node. It skips children whose first deviating event is in the
    node's {e sleep set}: the event fired as a default continuation in
    an already-explored sibling subtree, and nothing dependent with it
    has executed since, so the child's entire subtree consists of
    Mazurkiewicz-trace duplicates of schedules the search runs anyway.
    Every pruned schedule therefore has an explored representative with
    the same canonical fingerprint ({!Explore.run_result.canon}) — the
    soundness property the test suite replays every pruned prefix to
    check.

    Dependence is judged from the event-footprint labels the simulator
    attaches to heap entries ({!Dsm_sim.Label}), recorded per run by a
    {!Ready_log}; unlabeled events and events that chained queued lock
    grants are treated as dependent with everything (they wake all
    sleepers), so imprecision only ever costs pruning, never soundness.

    Pruning is automatically disabled when the spec injects faults —
    fault draws consume a shared PRNG stream per delivery, so commuting
    two deliveries changes every later draw and trace equivalence breaks
    down. On a faulty spec (or with [dpor:false]) the search degrades to
    the exact bounded-exhaustive DFS, run for run — which is also what
    the DPOR-vs-full comparison tests run against. *)

type stats = {
  runs : int;  (** schedules actually executed *)
  pruned : int;  (** children skipped as sleep-set redundant *)
  violated : int;
  first : (Explore.mode * Explore.run_result) option;
      (** first violating run, if any *)
  canons : string list;
      (** sorted distinct canonical fingerprints of {e all} executed
          runs — with [dpor] on and off (and [max_runs] high enough for
          both searches to finish the bounded tree) these sets are
          equal; that equality is the headline soundness theorem *)
  pruned_prefixes : int list list;
      (** the decision prefix of every pruned child, in prune order —
          the soundness suite replays each and asserts its canonical
          fingerprint is in [canons] *)
}

val explore :
  ?metrics:Dsm_obs.Metrics.t ->
  ?dpor:bool ->
  ?stop_on_first:bool ->
  ?max_runs:int ->
  Explore.spec ->
  depth:int ->
  stats
(** DFS in a fresh arena, deviating within the first [depth] choice
    points, capped at [max_runs] (default 500) schedules. [dpor]
    (default [true]) enables sleep-set pruning (on fault-free specs);
    [stop_on_first] (default [true]) returns at the first violation.
    Each pruned child emits a [Dpor_prune] probe event and is appended
    to [pruned_prefixes]. With [metrics], runs and prunes are counted
    into the registry (["explore.dpor_pruned"]). *)
