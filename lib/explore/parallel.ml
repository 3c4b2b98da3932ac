(* Domain-parallel schedule exploration.

   Stateless exploration of a deterministic seeded simulator is
   embarrassingly parallel: every run is a pure function of
   (spec, decision source), so workers never share simulation state —
   each domain owns a private [Explore.ctx] arena and the only shared
   data are a few atomics (the claim counter, the best index) and a
   mutex-protected "best finding" slot. The delicate part is not the
   parallelism but the merge: [explore ~jobs:n] must report
   bit-identically what the sequential explorer reports, for every n.
   Both drivers below achieve that by agreeing with the sequential
   search on a canonical order — walk index for random walks, canonical
   subtree rank (deviation position ascending, branch ascending; see
   [Explore.last_children]) for the DFS — and reducing findings to the
   minimum under that order.

   The costs that made jobs > 1 a slowdown on short batches were fixed
   constants, paid per batch or per run:
   - domain startup: [Domain.spawn] is milliseconds (a new minor heap,
     a new backup thread) — spawning per batch swamped sub-second
     batches. A {!Pool} spawns once per explore session and reuses the
     same domains for every batch, parking workers on a condition
     variable between jobs.
   - cold arenas: a fresh [Explore.ctx] per batch rebuilds the engine,
     machine and scenario plan. The pool keeps one arena per worker,
     hot across batches (reused whenever the spec is unchanged).
   - claim traffic: one fetch-and-add per run put the shared counter's
     cache line on the hot path. Claims now take a chunk of
     [chunk] walk indices per fetch-and-add (default 64), so the
     shared-counter cost amortizes to ~1/chunk per run.

   Both drivers hand out work through one claim loop ([run_claims])
   over an [Atomic] counter: walks claim [chunk] indices at a time,
   DFS subtrees one rank at a time. OCaml 5.1, no domainslib: that
   counter, a Mutex/Condition job barrier and [Domain.spawn] are all
   this needs. The calling domain participates as worker 0, so a pool
   of size n spawns n - 1 domains. *)

(* ---------- persistent worker pool ---------- *)

(* Per-worker persistent state: the arena (rebuilt only when the spec
   changes) and a private metrics registry (created on the first metered
   batch, attached to the arena's probe bus, drained into the caller's
   registry after every batch). Each slot is touched only by its own
   worker while a job runs and only by the caller between jobs — no
   locking needed. *)
type slot = {
  mutable arena : (Explore.spec * Explore.ctx) option;
  mutable wreg : Dsm_obs.Metrics.t option;
}

module Pool = struct
  type t = {
    size : int;
    slots : slot array;
    m : Mutex.t;
    work : Condition.t;  (* caller -> workers: a new generation is up *)
    idle : Condition.t;  (* workers -> caller: generation drained *)
    mutable generation : int;
    mutable job : (int -> unit) option;
    mutable running : int;
    mutable exns : exn list;
    mutable stopped : bool;
    mutable domains : unit Domain.t array;
  }

  let size t = t.size

  (* Spawned workers park here between jobs. Each wakes on a generation
     bump, runs the posted job with its worker id, reports completion,
     and parks again; [shutdown] wakes everyone with [stopped] set. *)
  let rec worker_loop t wid gen =
    Mutex.lock t.m;
    while t.generation = gen && not t.stopped do
      Condition.wait t.work t.m
    done;
    if t.stopped then Mutex.unlock t.m
    else begin
      let gen = t.generation in
      let job = Option.get t.job in
      Mutex.unlock t.m;
      (try job wid
       with e ->
         Mutex.lock t.m;
         t.exns <- e :: t.exns;
         Mutex.unlock t.m);
      Mutex.lock t.m;
      t.running <- t.running - 1;
      if t.running = 0 then Condition.signal t.idle;
      Mutex.unlock t.m;
      worker_loop t wid gen
    end

  let create ~jobs =
    let size = max 1 (min jobs (Domain.recommended_domain_count ())) in
    let t =
      {
        size;
        slots = Array.init size (fun _ -> { arena = None; wreg = None });
        m = Mutex.create ();
        work = Condition.create ();
        idle = Condition.create ();
        generation = 0;
        job = None;
        running = 0;
        exns = [];
        stopped = false;
        domains = [||];
      }
    in
    t.domains <-
      Array.init (size - 1) (fun i ->
          Domain.spawn (fun () -> worker_loop t (i + 1) 0));
    t

  (* Run [job wid] on every worker (the caller is worker 0) and wait for
     all of them. Every worker always finishes the generation; the first
     exception, if any, is re-raised afterwards (caller's first). *)
  let run t job =
    if t.stopped then invalid_arg "Parallel.Pool.run: pool is shut down";
    Mutex.lock t.m;
    t.job <- Some job;
    t.running <- t.size - 1;
    t.generation <- t.generation + 1;
    Condition.broadcast t.work;
    Mutex.unlock t.m;
    let caller = (try job 0; None with e -> Some e) in
    Mutex.lock t.m;
    while t.running > 0 do
      Condition.wait t.idle t.m
    done;
    t.job <- None;
    let exns = t.exns in
    t.exns <- [];
    Mutex.unlock t.m;
    match caller with
    | Some e -> raise e
    | None -> ( match exns with e :: _ -> raise e | [] -> ())

  let shutdown t =
    Mutex.lock t.m;
    if t.stopped then Mutex.unlock t.m
    else begin
      t.stopped <- true;
      Condition.broadcast t.work;
      Mutex.unlock t.m;
      Array.iter Domain.join t.domains;
      t.domains <- [||]
    end

  let with_pool ~jobs f =
    let t = create ~jobs in
    Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
end

(* The worker's hot arena, rebuilt only when this slot last ran a
   different spec. The metrics registry outlives arena swaps: it is
   attached to whichever engine the slot currently owns. *)
let slot_ctx pool ~metrics spec wid =
  let st = pool.Pool.slots.(wid) in
  let ctx =
    match st.arena with
    | Some (s, ctx) when s = spec -> ctx
    | _ ->
        let ctx = Explore.create_ctx spec in
        (match st.wreg with
        | Some r -> ignore (Dsm_obs.Meter.attach r (Explore.ctx_probe ctx))
        | None -> ());
        st.arena <- Some (spec, ctx);
        ctx
  in
  (if Option.is_some metrics && st.wreg = None then begin
     let r = Dsm_obs.Metrics.create () in
     st.wreg <- Some r;
     ignore (Dsm_obs.Meter.attach r (Explore.ctx_probe ctx))
   end);
  ctx

(* Fold every worker's private registry into the caller's and reset it,
   so the next batch meters from zero. [Metrics.merge_into] is
   commutative and associative and the fold runs on the caller after the
   generation barrier, so worker completion order cannot leak into the
   aggregate. *)
let fold_worker_metrics pool metrics =
  match metrics with
  | None -> ()
  | Some into ->
      Array.iter
        (fun st ->
          match st.wreg with
          | None -> ()
          | Some src ->
              Dsm_obs.Metrics.merge_into ~into src;
              Dsm_obs.Metrics.reset src)
        pool.Pool.slots

(* One batch: [f] on [pool], or on a throwaway pool of [jobs] workers,
   then the fold — every batch, however it ran, meters into [metrics]. *)
let batch ?pool ~jobs ~metrics f =
  let run pool =
    let stats = f pool in
    fold_worker_metrics pool metrics;
    stats
  in
  match pool with Some p -> run p | None -> Pool.with_pool ~jobs run

let rec atomic_min a v =
  let cur = Atomic.get a in
  if v < cur && not (Atomic.compare_and_set a cur v) then atomic_min a v

let claim_probe ctx ~domain ~first_run ~count =
  let probe = Explore.ctx_probe ctx in
  if probe.Dsm_obs.Probe.on then
    Dsm_obs.Probe.emit probe
      (Dsm_obs.Probe.Domain_claim { domain; first_run; count })

(* The one claim loop, run by every worker of both drivers: claim
   [chunk] consecutive indices of [0, count) per fetch-and-add on a
   shared counter and pass each to [work] with the worker's arena, until
   the range is used up — or, with [stop_above], until the next index is
   above the shared best. Claims are monotone, so every index the worker
   could still claim is above the best too: it stops for good and drops
   the rest of its chunk. The best only ever decreases, so every dropped
   index is above the final best, and every index below it was executed
   by someone. *)
let run_claims pool ~metrics spec ~chunk ~count ?stop_above work =
  let next = Atomic.make 0 in
  if count > 0 then
    Pool.run pool (fun wid ->
        let ctx = slot_ctx pool ~metrics spec wid in
        let continue_ = ref true in
        while !continue_ do
          let lo = Atomic.fetch_and_add next chunk in
          if lo >= count then continue_ := false
          else begin
            let hi = min count (lo + chunk) in
            claim_probe ctx ~domain:wid ~first_run:lo ~count:(hi - lo);
            let i = ref lo in
            while !continue_ && !i < hi do
              (match stop_above with
              | Some best when !i > Atomic.get best -> continue_ := false
              | _ -> work ctx !i);
              incr i
            done
          end
        done)

(* ---------- random walks ---------- *)

(* Walk indices are claimed in chunks; each index is a pure function of
   (spec, index), so ownership does not matter. The merge order is the
   walk index itself:

   - [stop_on_first = true]: the sequential explorer returns the walk
     with the lowest violating index i*, having executed exactly
     i* + 1 runs. Workers CAS-min a shared best index and claim with
     [stop_above] on it, so the minimum is exact.
   - [stop_on_first = false]: no index is ever skipped; the violation
     count is exact and the reported first violation is again the
     index minimum. *)
let explore_random ?(check_determinism = true) ?(stop_on_first = true)
    ?metrics ?progress ?(chunk = 64) ?pool ~jobs spec ~runs =
  if chunk < 1 then invalid_arg "Parallel.explore_random: chunk must be >= 1";
  batch ?pool ~jobs ~metrics @@ fun pool ->
  if Pool.size pool = 1 || runs <= 1 then begin
    let ctx = slot_ctx pool ~metrics spec 0 in
    (* worker 0 claims the whole index range in one chunk — true, and it
       keeps the claim counters and the timeline's domain lane live on
       single-core hosts where the pool clamps to one worker *)
    claim_probe ctx ~domain:0 ~first_run:0 ~count:runs;
    Explore.explore_random_in ~check_determinism ~stop_on_first ctx ~runs
  end
  else begin
    let best = Atomic.make max_int in
    let violated = Atomic.make 0 in
    let completed = Atomic.make 0 in
    let mu = Mutex.create () in
    let best_found = ref None in
    let record i r =
      Mutex.lock mu;
      (match !best_found with
      | Some (j, _) when j <= i -> ()
      | _ -> best_found := Some (i, r));
      Mutex.unlock mu;
      atomic_min best i
    in
    run_claims pool ~metrics spec ~chunk ~count:runs
      ?stop_above:(if stop_on_first then Some best else None)
      (fun ctx idx ->
        let raw =
          Explore.exec_checked ~check_determinism ctx (Explore.Walk idx)
        in
        if Explore.raw_violating raw then begin
          Atomic.incr violated;
          record idx (Explore.result_of ctx raw)
        end;
        Atomic.incr completed;
        match progress with
        | None -> ()
        | Some f ->
            f ~runs:(Atomic.get completed) ~violated:(Atomic.get violated));
    match !best_found with
    | Some (i, r) when stop_on_first ->
        { Explore.runs = i + 1; violated = 1; first = Some (Explore.Walk i, r) }
    | Some (i, r) ->
        { Explore.runs; violated = Atomic.get violated;
          first = Some (Explore.Walk i, r) }
    | None -> { Explore.runs; violated = 0; first = None }
  end

(* ---------- bounded-exhaustive DFS ---------- *)

(* The sequential search runs the root, then explores each first-level
   subtree completely (same DFS, same child order) before the next, so
   its global run sequence is: root, subtree 0, subtree 1, ... Worker 0
   runs the root; the subtrees are then claimed one rank at a time and
   each is searched by [Explore.dfs_in] on its own. The merge replays
   the sequence from the summaries, applying the [max_runs] cap and the
   stop-at-first-violation rule exactly where the sequential search
   would. A subtree may be skipped or aborted only when a
   strictly-lower-ranked subtree has already violated — and the merge
   provably never reads past the lowest violating rank, so skipped
   summaries are never consumed. *)

type subtree =
  | Complete of int  (* violation-free; number of runs in the subtree *)
  | Violating of int * int list * Explore.run_result
      (* position within the subtree's own run sequence (1-based) of its
         first violation, the violating prefix, and that run
         materialized *)
  | Skipped

let rec merge ~max_runs runs = function
  | [] -> { Explore.runs; violated = 0; first = None }
  | Complete c :: rest ->
      if runs + c >= max_runs then
        { Explore.runs = max_runs; violated = 0; first = None }
      else merge ~max_runs (runs + c) rest
  | Violating (pos, prefix, r) :: _ when runs + pos <= max_runs ->
      { Explore.runs = runs + pos; violated = 1;
        first = Some (Explore.Script prefix, r) }
  | Violating _ :: _ -> { Explore.runs = max_runs; violated = 0; first = None }
  | Skipped :: _ ->
      (* unreachable: a rank is only skipped when a lower rank violated,
         and the merge stops at that lower rank (or at the cap) first *)
      failwith "Parallel.explore_exhaustive: merge read a skipped subtree"

let explore_exhaustive ?(max_runs = 500) ?metrics ~jobs spec ~depth =
  batch ~jobs ~metrics @@ fun pool ->
  let ctx0 = slot_ctx pool ~metrics spec 0 in
  if Pool.size pool = 1 then
    Explore.explore_exhaustive_in ~max_runs ctx0 ~depth
  else begin
    let max_runs = max 0 max_runs in
    let best_rank = Atomic.make max_int in
    (* The DFS below [prefix0] (just [prefix0] itself unless [expand]):
       it stops at the cap, at its first violation, or — as [Skipped] —
       once a lower rank has violated. *)
    let search ctx ~rank ~expand prefix0 =
      let count = ref 0 in
      let found = ref None in
      let aborted = ref false in
      Explore.dfs_in ctx ~root:prefix0 ~prefix:Fun.id
        ~until:(fun () ->
          Option.is_some !found || !count >= max_runs
          || (Atomic.get best_rank < rank && (aborted := true; true)))
        (fun prefix raw ->
          incr count;
          if Explore.raw_violating raw then begin
            atomic_min best_rank rank;
            found := Some (!count, prefix, Explore.result_of ctx raw);
            []
          end
          else if expand then
            Explore.last_children ctx ~plen:(List.length prefix) ~depth
          else []);
      match !found with
      | Some (pos, prefix, r) -> Violating (pos, prefix, r)
      | None -> if !aborted then Skipped else Complete !count
    in
    (* the root goes through the same cap as every subtree, unexpanded
       (its children are the ranks); rank -1, as nothing precedes it *)
    let root = search ctx0 ~rank:(-1) ~expand:false [] in
    let ranks =
      match root with
      | Complete 1 when max_runs > 1 ->
          Array.of_list (Explore.last_children ctx0 ~plen:0 ~depth)
      | _ -> [||]
    in
    let outcomes = Array.make (Array.length ranks) Skipped in
    run_claims pool ~metrics spec ~chunk:1 ~count:(Array.length ranks)
      ~stop_above:best_rank (fun ctx rank ->
        outcomes.(rank) <- search ctx ~rank ~expand:true ranks.(rank));
    merge ~max_runs 0 (root :: Array.to_list outcomes)
  end
