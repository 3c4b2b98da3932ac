(* Bechamel wall-clock micro-benchmarks of the implementation's hot
   paths. The paper's figures and claims (sections E1-E17) are
   regenerated by `dsmcheck experiment`, not here.

   Usage:
     dune exec bench/main.exe                 # every micro-benchmark
     dune exec bench/main.exe -- --json       # detector hot-path benches,
                                              # written to BENCH_detector.json
     dune exec bench/main.exe -- --json-explore # schedule-explorer
                                              # throughput, written to
                                              # BENCH_explore.json
     dune exec bench/main.exe -- --smoke ...  # tiny iteration budget
                                              # (regression smoke test) *)

open Bechamel
open Toolkit
module Harness = Dsm_experiments.Harness
module Config = Dsm_core.Config

(* ---------- micro-benchmark subjects ---------- *)

let vc_pair n seed =
  let g = Dsm_sim.Prng.create ~seed in
  let mk () =
    Dsm_clocks.Vector_clock.of_array
      (Array.init n (fun _ -> Dsm_sim.Prng.int g 64))
  in
  (mk (), mk ())

(* A pair of single-writer clocks, as left behind by a process that never
   absorbed another process's history: the epoch fast path. *)
let vc_epoch_pair n =
  let mk pid k =
    let c = Dsm_clocks.Vector_clock.create ~n in
    for _ = 1 to k do
      Dsm_clocks.Vector_clock.tick c ~me:pid
    done;
    c
  in
  (mk 0 17, mk (n - 1) 23)

let bench_vc_compare n =
  let a, b = vc_pair n 1 in
  Test.make
    ~name:(Printf.sprintf "vc_compare_n%d" n)
    (Staged.stage (fun () -> ignore (Dsm_clocks.Vector_clock.compare a b)))

let bench_vc_compare_epoch n =
  let a, b = vc_epoch_pair n in
  Test.make
    ~name:(Printf.sprintf "vc_compare_epoch_n%d" n)
    (Staged.stage (fun () -> ignore (Dsm_clocks.Vector_clock.compare a b)))

let bench_vc_compare_mixed n =
  (* epoch accessor against a promoted (dense) datum clock *)
  let e, _ = vc_epoch_pair n in
  let _, v = vc_pair n 4 in
  Test.make
    ~name:(Printf.sprintf "vc_compare_mixed_n%d" n)
    (Staged.stage (fun () -> ignore (Dsm_clocks.Vector_clock.compare e v)))

let bench_vc_merge n =
  let a, b = vc_pair n 2 in
  Test.make
    ~name:(Printf.sprintf "vc_merge_n%d" n)
    (Staged.stage (fun () -> ignore (Dsm_clocks.Vector_clock.merge a b)))

let bench_vc_merge_epoch_into_vec n =
  let _, v = vc_pair n 6 in
  let e, _ = vc_epoch_pair n in
  let tgt = Dsm_clocks.Vector_clock.copy v in
  Test.make
    ~name:(Printf.sprintf "vc_merge_epoch_into_vec_n%d" n)
    (Staged.stage (fun () ->
         Dsm_clocks.Vector_clock.merge_into ~into:tgt e))

let bench_codec n =
  let a, _ = vc_pair n 3 in
  Test.make
    ~name:(Printf.sprintf "vc_codec_roundtrip_n%d" n)
    (Staged.stage (fun () ->
         ignore
           (Dsm_clocks.Codec.decode_vector (Dsm_clocks.Codec.encode_vector a))))

let bench_matrix_observe n =
  let a = Dsm_clocks.Matrix_clock.create ~n ~me:0 in
  let b = Dsm_clocks.Matrix_clock.create ~n ~me:1 in
  Dsm_clocks.Matrix_clock.tick b;
  Test.make
    ~name:(Printf.sprintf "matrix_observe_n%d" n)
    (Staged.stage (fun () -> Dsm_clocks.Matrix_clock.observe a b))

let bench_heap =
  Test.make ~name:"heap_push_pop_1k"
    (Staged.stage (fun () ->
         let h = Dsm_sim.Heap.create ~dummy:0 in
         let g = Dsm_sim.Prng.create ~seed:5 in
         for i = 0 to 999 do
           Dsm_sim.Heap.add h ~time:(Dsm_sim.Prng.float g 100.) ~seq:i
             ~label:Dsm_sim.Label.unknown i
         done;
         let rec drain () =
           match Dsm_sim.Heap.pop h with Some _ -> drain () | None -> ()
         in
         drain ()))

let bench_engine_events =
  Test.make ~name:"engine_1k_events"
    (Staged.stage (fun () ->
         let sim = Dsm_sim.Engine.create () in
         Dsm_sim.Engine.spawn sim (fun () ->
             for _ = 1 to 1000 do
               Dsm_sim.Engine.sleep sim 1.0
             done);
         ignore (Dsm_sim.Engine.run sim)))

(* End-to-end cost of checked operations: a fresh 4-node machine running
   16 checked puts (or gets), per transport × granularity × clock
   representation. Wall-clock per sample covers the full simulation
   stack (locks, messages, clocks, report). *)
let checked_workload ~op ~len ~config () =
  let m = Harness.fresh_machine ~n:4 () in
  let d = Dsm_core.Detector.create m ~config () in
  let a = Dsm_core.Detector.alloc_shared d ~pid:3 ~name:"a" ~len () in
  for pid = 0 to 1 do
    Dsm_rdma.Machine.spawn m ~pid (fun p ->
        let buf = Dsm_rdma.Machine.alloc_private m ~pid ~len () in
        for _ = 1 to 8 do
          match op with
          | `Put -> Dsm_core.Detector.put d p ~src:buf ~dst:a
          | `Get -> Dsm_core.Detector.get d p ~src:a ~dst:buf
        done)
  done;
  Harness.run_to_completion m

let bench_checked_ops name transport =
  (* The seed's historical shape (len-1 variable), kept name-compatible
     so the trajectory across PRs stays comparable. *)
  Test.make
    ~name:(Printf.sprintf "checked_16_puts_%s" name)
    (Staged.stage
       (checked_workload ~op:`Put ~len:1
          ~config:{ Config.default with Config.transport }))

let bench_checked ~op ~transport ~granularity =
  let opname = match op with `Put -> "put" | `Get -> "get" in
  let name =
    Printf.sprintf "checked_%s_%s_%s" opname
      (Config.transport_name transport)
      (Config.granularity_name granularity)
  in
  (* len-4 accesses so block/word granularity exercises multi-granule
     walks (4 granules per access under [Word]). *)
  Test.make ~name
    (Staged.stage
       (checked_workload ~op ~len:4
          ~config:{ Config.default with Config.transport; granularity }))

(* The paper's common case: one producer repeatedly publishing into a
   shared variable nobody else touches. Every clock involved stays an
   epoch, so the whole check is O(1) comparisons with no allocation. *)
let bench_single_writer ~n =
  Test.make
    ~name:(Printf.sprintf "single_writer_64_puts_n%d" n)
    (Staged.stage (fun () ->
         let m = Harness.fresh_machine ~n () in
         let d = Dsm_core.Detector.create m () in
         let a =
           Dsm_core.Detector.alloc_shared d ~pid:(n - 1) ~name:"a" ~len:1 ()
         in
         Dsm_rdma.Machine.spawn m ~pid:0 (fun p ->
             let buf = Dsm_rdma.Machine.alloc_private m ~pid:0 ~len:1 () in
             for _ = 1 to 64 do
               Dsm_core.Detector.put d p ~src:buf ~dst:a
             done);
         Harness.run_to_completion m))

(* Scaling rows: the race-free neighbour-push workload
   ([Dsm_workload.Scale]) at growing process counts, one full simulated
   run per sample. Cross-process clocks stay sorted pairs, so checks pay
   O(active writers), not O(n). Small segments keep machine construction
   from dominating at n = 1024. *)
let bench_scale ~n =
  Test.make
    ~name:(Printf.sprintf "scale_n%d" n)
    (Staged.stage (fun () ->
         let sim = Dsm_sim.Engine.create ~seed:1 () in
         let m =
           Dsm_rdma.Machine.create sim ~n
             ~latency:(Dsm_net.Latency.Constant 1.0) ~private_words:64
             ~public_words:64 ()
         in
         let d =
           Dsm_core.Detector.create m
             ~config:{ Config.default with Config.granularity = Config.Word }
             ()
         in
         let env = Dsm_pgas.Env.checked d in
         Dsm_workload.Scale.setup env
           { Dsm_workload.Scale.default with rounds = 1; seed = 1 };
         Harness.run_to_completion m))

(* One-sided checked fetch_add vs the same increment emulated as
   lock + get + put + unlock. The RMW pays one fabric round trip and one
   granule check (read + write under a single lock hold); the emulation
   pays the lock service plus two data round trips and two checks — the
   gap the rmw_* rows track. *)
let rmw_workload ~emulate () =
  let m = Harness.fresh_machine ~n:4 () in
  let d = Dsm_core.Detector.create m () in
  let a = Dsm_core.Detector.alloc_shared d ~pid:3 ~name:"a" ~len:1 () in
  let mu = Dsm_rdma.Machine.alloc_public m ~pid:3 ~name:"mu" ~len:1 () in
  let target =
    Dsm_memory.Addr.global ~pid:3 ~space:Dsm_memory.Addr.Public
      ~offset:a.Dsm_memory.Addr.base.offset
  in
  for pid = 0 to 1 do
    Dsm_rdma.Machine.spawn m ~pid (fun p ->
        let buf = Dsm_rdma.Machine.alloc_private m ~pid ~len:1 () in
        for _ = 1 to 8 do
          if emulate then begin
            let h = Dsm_core.Detector.lock d p mu in
            Dsm_core.Detector.get d p ~src:a ~dst:buf;
            Dsm_core.Detector.put d p ~src:buf ~dst:a;
            Dsm_core.Detector.unlock d p h
          end
          else ignore (Dsm_core.Detector.fetch_add d p ~target ~delta:1)
        done)
  done;
  Harness.run_to_completion m

let bench_rmw_fetch_add =
  Test.make ~name:"rmw_fetch_add_16"
    (Staged.stage (rmw_workload ~emulate:false))

let bench_rmw_lock_emulation =
  Test.make ~name:"rmw_lock_emulation_16"
    (Staged.stage (rmw_workload ~emulate:true))

let bench_plain_ops =
  Test.make ~name:"plain_16_puts"
    (Staged.stage (fun () ->
         let m = Harness.fresh_machine ~n:4 () in
         let a = Dsm_rdma.Machine.alloc_public m ~pid:3 ~len:1 () in
         for pid = 0 to 1 do
           Dsm_rdma.Machine.spawn m ~pid (fun p ->
               let buf = Dsm_rdma.Machine.alloc_private m ~pid ~len:1 () in
               for _ = 1 to 8 do
                 Dsm_rdma.Machine.put p ~src:buf ~dst:a ()
               done)
         done;
         Harness.run_to_completion m))

let sample_trace () =
  let r = Dsm_trace.Recorder.create ~n:4 () in
  let g = Dsm_sim.Prng.create ~seed:7 in
  for i = 0 to 199 do
    ignore
      (Dsm_trace.Recorder.access r ~time:(float_of_int i)
         ~pid:(Dsm_sim.Prng.int g 4)
         ~kind:
           (if Dsm_sim.Prng.bool g then Dsm_trace.Event.Write
            else Dsm_trace.Event.Read)
         ~target:
           (Dsm_memory.Addr.region
              ~pid:(Dsm_sim.Prng.int g 4)
              ~space:Dsm_memory.Addr.Public
              ~offset:(Dsm_sim.Prng.int g 16)
              ~len:(1 + Dsm_sim.Prng.int g 4)))
  done;
  r

let bench_trace_races =
  Test.make ~name:"trace_hb_races_200ev"
    (Staged.stage (fun () ->
         let t = Dsm_trace.Recorder.finish (sample_trace ()) in
         ignore (Dsm_trace.Trace.races t)))

let bench_lockset =
  let t = Dsm_trace.Recorder.finish (sample_trace ()) in
  Test.make ~name:"lockset_200ev"
    (Staged.stage (fun () -> ignore (Dsm_baselines.Lockset.analyze t)))

let bench_barrier n =
  Test.make
    ~name:(Printf.sprintf "barrier_round_n%d" n)
    (Staged.stage (fun () ->
         let m = Harness.fresh_machine ~n () in
         let env = Dsm_pgas.Env.plain m in
         let c = Dsm_pgas.Collectives.create env in
         Dsm_rdma.Machine.spawn_all m (fun p ->
             for _ = 1 to 4 do
               Dsm_pgas.Collectives.barrier c p
             done);
         Harness.run_to_completion m))

let bench_svm_fault_path =
  Test.make ~name:"svm_read_fault"
    (Staged.stage (fun () ->
         let m = Harness.fresh_machine ~n:2 () in
         let svm = Dsm_svm.Svm.create m ~page_words:16 ~num_pages:1 () in
         Dsm_rdma.Machine.spawn m ~pid:1 (fun p ->
             ignore (Dsm_svm.Svm.load svm p ~addr:0));
         Harness.run_to_completion m))

let bench_window_fence =
  Test.make ~name:"mpiwin_fence_exchange"
    (Staged.stage (fun () ->
         let m = Harness.fresh_machine ~n:4 () in
         let env = Dsm_pgas.Env.plain m in
         let c = Dsm_pgas.Collectives.create env in
         let w =
           Dsm_mpiwin.Window.create env ~collectives:c ~name:"w"
             ~len_per_rank:1
         in
         Dsm_rdma.Machine.spawn_all m (fun p ->
             let pid = Dsm_rdma.Machine.pid p in
             Dsm_mpiwin.Window.fence w p;
             Dsm_mpiwin.Window.put w p ~rank:((pid + 1) mod 4) ~offset:0 pid;
             Dsm_mpiwin.Window.fence w p);
         Harness.run_to_completion m))

let bench_task_pool =
  Test.make ~name:"task_pool_16_tasks"
    (Staged.stage (fun () ->
         let m = Harness.fresh_machine ~n:4 () in
         let env = Dsm_pgas.Env.plain m in
         let c = Dsm_pgas.Collectives.create env in
         let pool =
           Dsm_pgas.Task_pool.create env ~collectives:c ~name:"pool"
             ~capacity_per_node:16
         in
         Dsm_pgas.Task_pool.seed_tasks pool ~pid:0 (List.init 16 (fun i -> i));
         Dsm_rdma.Machine.spawn_all m (fun p ->
             Dsm_pgas.Task_pool.run_worker pool p ~work:(fun _ -> ()));
         Harness.run_to_completion m))

let micro_tests =
  Test.make_grouped ~name:"dsmcheck"
    [
      bench_vc_compare 4;
      bench_vc_compare 16;
      bench_vc_compare 64;
      bench_vc_merge 16;
      bench_codec 16;
      bench_matrix_observe 16;
      bench_heap;
      bench_engine_events;
      bench_plain_ops;
      bench_checked_ops "inline" Config.Inline;
      bench_checked_ops "piggyback" Config.Piggyback_txn;
      bench_checked_ops "explicit" Config.Explicit_txn;
      bench_trace_races;
      bench_lockset;
      bench_barrier 4;
      bench_barrier 16;
      bench_svm_fault_path;
      bench_window_fence;
      bench_task_pool;
    ]

(* The detector hot-path suite: the numbers tracked across PRs in
   BENCH_detector.json. Covers the clock-level fast paths, the
   single-writer and scaling workloads, and checked puts/gets per
   transport × granularity. *)
let detector_tests =
  let transports = [ Config.Inline; Config.Piggyback_txn; Config.Explicit_txn ]
  and granularities = [ Config.Variable; Config.Block 2; Config.Word ] in
  Test.make_grouped ~name:"detector"
    ([
       bench_vc_compare_epoch 4;
       bench_vc_compare_epoch 64;
       bench_vc_compare_mixed 64;
       bench_vc_merge_epoch_into_vec 64;
       bench_single_writer ~n:4;
       bench_single_writer ~n:16;
       bench_scale ~n:8;
       bench_scale ~n:64;
       bench_scale ~n:256;
       bench_scale ~n:1024;
       bench_checked ~op:`Get ~transport:Config.Piggyback_txn
         ~granularity:Config.Variable;
       bench_rmw_fetch_add;
       bench_rmw_lock_emulation;
     ]
    @ List.concat_map
        (fun transport ->
          List.map
            (fun granularity -> bench_checked ~op:`Put ~transport ~granularity)
            granularities)
        transports)

(* ---------- schedule-exploration throughput ---------- *)

(* One "run" is one fully executed schedule — randomized walk (or scripted
   replay), invariant checks included — so ns/run here is the reciprocal
   of explorer throughput in schedules/sec. Tracked across PRs in
   BENCH_explore.json. *)

module Explore = Dsm_explore.Explore

let explore_spec ?(scenario = "getput") ?(n = 2) ?(faults = "none")
    ?(reliable = false) () =
  {
    Explore.default_spec with
    scenario;
    n;
    seed = 42;
    faults = Dsm_net.Fault.of_string faults;
    reliable;
  }

let bench_explore name spec =
  let salt = ref 0 in
  Test.make ~name:("explore walk " ^ name)
    (Staged.stage (fun () ->
         incr salt;
         ignore (Explore.run_once spec (Explore.Walk !salt))))

(* Scripted re-execution of one recorded schedule: the replay path a
   minimized repro token exercises. *)
let bench_explore_replay name spec =
  let probe = Explore.run_once spec (Explore.Walk 1) in
  let ds = probe.Explore.decisions in
  Test.make ~name:("explore replay " ^ name)
    (Staged.stage (fun () ->
         ignore (Explore.run_once spec (Explore.Script ds))))

let racy_path =
  List.find_opt Sys.file_exists
    [ "programs/racy.dsm"; "../programs/racy.dsm" ]

(* Domain-parallel walk throughput, hand-timed: one sample is a whole
   batch of walks through [Parallel.explore_random] (determinism
   re-check off, [stop_on_first] off so every worker executes its full
   share of the batch), measured with the same monotonic clock Bechamel
   uses and reported best-of-reps. A batch is tens of milliseconds of
   work, so an iteration-count regression would add nothing — these rows
   carry [runs_per_sec], [jobs] and [speedup_vs_1] instead of an r² and
   are exempt from the confidence gate below. *)
module Parallel = Dsm_explore.Parallel
module Dpor = Dsm_explore.Dpor

let parallel_jobs = [ 1; 2; 4 ]
let parallel_chunks = [ 1; 64; 256 ]

let parallel_batch ~smoke ~pool ~chunk spec =
  let runs = if smoke then 40 else 1000 in
  let reps = if smoke then 1 else 3 in
  let best = ref infinity in
  (* one throwaway batch so the pool's arenas are built (and the spec's
     scenario compiled) before the clock starts — the pool amortizes
     that cost across a session, and so does the bench *)
  ignore
    (Parallel.explore_random ~check_determinism:false ~stop_on_first:false
       ~pool ~jobs:1 ~chunk spec ~runs:(min runs 8));
  for _ = 1 to reps do
    (* Toolkit.Monotonic_clock.get is the same clock the OLS rows use,
       in ns. *)
    let t0 = Monotonic_clock.get () in
    let stats =
      Parallel.explore_random ~check_determinism:false ~stop_on_first:false
        ~pool ~jobs:1 ~chunk spec ~runs
    in
    let dt = (Monotonic_clock.get () -. t0) /. 1e9 in
    if stats.Explore.runs <> runs then
      failwith "parallel bench: batch did not execute every walk";
    if dt < !best then best := dt
  done;
  (runs, !best)

let explore_tests =
  Test.make_grouped ~name:"explore"
    ([
       bench_explore "getput" (explore_spec ());
       bench_explore "getput lossy+reliable"
         (explore_spec ~faults:"drop=0.1,dup=0.05" ~reliable:true ());
       bench_explore "workload:random"
         (explore_spec ~scenario:"workload:random" ~n:3 ());
       bench_explore_replay "getput" (explore_spec ());
     ]
    @
    match racy_path with
    | Some p ->
        [
          bench_explore "prog:racy"
            (explore_spec ~scenario:("prog:" ^ p) ~n:3 ());
        ]
    | None -> [])

(* ---------- measurement, table and JSON output ---------- *)

let row_estimates (_, v) =
  let ns =
    match Analyze.OLS.estimates v with Some (e :: _) -> Some e | _ -> None
  in
  (ns, Analyze.OLS.r_square v)

(* An OLS fit whose r² is below this floor means the per-iteration cost
   did not explain the samples — the number is noise, not a benchmark.
   The JSON entry points refuse to bless such rows (outside --smoke,
   whose budget is deliberately too small to fit anything). *)
let r2_floor = 0.85

let low_confidence rows =
  List.filter_map
    (fun ((name, _) as row) ->
      match row_estimates row with
      | _, Some r2 when r2 >= r2_floor -> None
      | _, r2 -> Some (name, r2))
    rows

let ols =
  Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]

(* Per-element measurement with escalation: a fit under the r² floor is
   almost always a GC- or scheduler-spiked sample set on a noisy host,
   so only the offending rows are re-measured, with the time budget
   doubled each round, until they fit or the escalation cap is hit
   (anything still bad is then rejected by the gate in [run_json]). *)
let measure ~smoke tests =
  let instances = Instance.[ monotonic_clock ] in
  let cfg ~scale =
    if smoke then
      Benchmark.cfg ~limit:150 ~quota:(Time.second 0.02) ~stabilize:false ()
    else
      Benchmark.cfg ~limit:(3000 * scale)
        ~quota:(Time.second (1.25 *. float_of_int scale))
        ~stabilize:true ()
  in
  let run_elt ~scale elt =
    Analyze.one ols Instance.monotonic_clock
      (Benchmark.run (cfg ~scale) instances elt)
  in
  let elts = Test.elements tests in
  let rec refine scale rows =
    if smoke || scale > 4 then rows
    else
      match List.map fst (low_confidence rows) with
      | [] -> rows
      | bad ->
          refine (2 * scale)
            (List.map2
               (fun elt ((name, _) as row) ->
                 if List.mem name bad then (name, run_elt ~scale elt) else row)
               elts rows)
  in
  let rows = List.map (fun e -> (Test.Elt.name e, run_elt ~scale:1 e)) elts in
  List.sort compare (refine 2 rows)

let print_rows rows =
  let table =
    Dsm_stats.Table.create ~headers:[ "benchmark"; "ns/run"; "r^2" ]
  in
  List.iter
    (fun ((name, _) as row) ->
      let ns, r2 = row_estimates row in
      let fmt f = function Some x -> Printf.sprintf f x | None -> "-" in
      Dsm_stats.Table.add_row table
        [ name; fmt "%.1f" ns; fmt "%.4f" r2 ])
    rows;
  Dsm_stats.Table.print table

module Json = Dsm_obs.Json_writer

let num : float option -> Json.value = function
  | Some x when Float.is_finite x -> Fixed (2, x)
  | _ -> Null

(* A JSON row is a name plus ordered (key, typed value) fields, so
   Bechamel OLS rows and the hand-timed parallel rows go through one
   writer. *)
let json_row_of_ols ((name, _) as row) =
  let ns, r2 = row_estimates row in
  (name, [ ("ns_per_run", num ns); ("r2", num r2) ])

let parallel_json_rows ~smoke () =
  let spec = explore_spec ~faults:"drop=0.1,dup=0.05" ~reliable:true () in
  (* the jobs x chunk matrix, one persistent pool per jobs value —
     spawned once, hot arenas across every chunk batch, exactly how an
     explore session uses it. speedup_vs_1 compares against jobs=1 at
     the same chunk size. *)
  let timed =
    List.map
      (fun jobs ->
        Parallel.Pool.with_pool ~jobs (fun pool ->
            List.map
              (fun chunk ->
                (jobs, chunk, parallel_batch ~smoke ~pool ~chunk spec))
              parallel_chunks))
      parallel_jobs
    |> List.concat
  in
  let base chunk =
    match
      List.find_opt (fun (jobs, c, _) -> jobs = 1 && c = chunk) timed
    with
    | Some (_, _, (_, dt)) -> dt
    | None -> nan
  in
  List.map
    (fun (jobs, chunk, (runs, dt)) ->
      let r = float_of_int runs in
      Printf.printf
        "explore/parallel_walks_jobs%d_chunk%d: %.0f runs/sec (%.2fx vs 1 \
         domain)\n\
         %!"
        jobs chunk (r /. dt)
        (base chunk /. dt);
      ( Printf.sprintf "explore/parallel_walks_jobs%d_chunk%d" jobs chunk,
        [
          ("ns_per_run", num (Some (dt *. 1e9 /. r)));
          ("runs_per_sec", num (Some (r /. dt)));
          ("jobs", Int jobs);
          ("chunk", Int chunk);
          ("speedup_vs_1", num (Some (base chunk /. dt)));
        ] ))
    timed

(* Sleep-set DPOR vs the unreduced bounded DFS on a genuinely branching
   fault-free tree. The row carries counts, not timings: runs explored
   by each search, schedules pruned, and whether the canonical
   fingerprint sets (violated invariants + racy granules) came out
   identical — the soundness bit that makes the reduction worth
   anything. *)
let dpor_json_rows ~smoke () =
  let specs =
    [
      ( "explore/dfs_dpor_vs_full",
        {
          (explore_spec ~scenario:"workload:master-worker-racy" ~n:3 ()) with
          seed = 1;
        },
        10 );
      ( "explore/dfs_dpor_vs_full_getput_tied",
        {
          (explore_spec ()) with
          seed = 1;
          latency = Dsm_net.Latency.Constant 1.0;
        },
        6 );
    ]
  in
  let max_runs = if smoke then 100 else 2000 in
  List.map
    (fun (name, spec, depth) ->
      let full =
        Dpor.explore ~dpor:false ~stop_on_first:false ~max_runs spec ~depth
      in
      let red = Dpor.explore ~stop_on_first:false ~max_runs spec ~depth in
      let candidates = red.Dpor.runs + red.Dpor.pruned in
      let pct =
        if candidates = 0 then 0.0
        else 100.0 *. float_of_int red.Dpor.pruned /. float_of_int candidates
      in
      let same = full.Dpor.canons = red.Dpor.canons in
      Printf.printf
        "%s: full %d runs, dpor %d runs + %d pruned (%.1f%%), violation \
         sets %s\n\
         %!"
        name full.Dpor.runs red.Dpor.runs red.Dpor.pruned pct
        (if same then "identical" else "DIFFER");
      if (not smoke) && not same then begin
        Printf.eprintf
          "%s: DPOR and full DFS disagree on the violation set; the numbers \
           were not blessed.\n"
          name;
        exit 1
      end;
      ( name,
        [
          ("full_runs", Json.Int full.Dpor.runs);
          ("dpor_runs", Int red.Dpor.runs);
          ("dpor_pruned", Int red.Dpor.pruned);
          ("pruned_pct", num (Some pct));
          ("same_violation_set", Int (if same then 1 else 0));
        ] ))
    specs

(* ---------- probe overhead and metrics rows ---------- *)

(* The telemetry layer's no-cost claim, measured head-on. [guard_ns] is
   the marginal cost of one disabled emit site — a field load, a [land]
   with its class bit and an untaken branch on a silent bus — obtained
   by differencing two
   hand-timed loops that differ only in the guard. [sites_per_op] counts
   how many emit sites one checked put actually visits (a counting sink
   on the same workload), and [op_ns] is that put's end-to-end cost with
   the bus silent. The blessed claim, gated in the --json run:
   guard_ns * sites_per_op <= 3% of op_ns. Hand-timed rows carry no r²
   and are exempt from the confidence gate. *)

let single_writer_workload ?(on_machine = fun (_ : Dsm_rdma.Machine.t) -> ())
    ?model () =
  let m = Harness.fresh_machine ~n:4 ?model () in
  on_machine m;
  let d = Dsm_core.Detector.create m () in
  let a = Dsm_core.Detector.alloc_shared d ~pid:3 ~name:"a" ~len:1 () in
  Dsm_rdma.Machine.spawn m ~pid:0 (fun p ->
      let buf = Dsm_rdma.Machine.alloc_private m ~pid:0 ~len:1 () in
      for _ = 1 to 64 do
        Dsm_core.Detector.put d p ~src:buf ~dst:a
      done);
  Harness.run_to_completion m

let probe_overhead ~smoke () =
  let bus = Dsm_obs.Probe.create () in
  let iters = if smoke then 100_000 else 20_000_000 in
  let reps = if smoke then 1 else 5 in
  let acc = ref 0 in
  let timed body =
    let best = ref infinity in
    for _ = 1 to reps do
      let t0 = Monotonic_clock.get () in
      body ();
      let dt = Monotonic_clock.get () -. t0 in
      if dt < !best then best := dt
    done;
    !best /. float_of_int iters
  in
  let guarded () =
    for i = 1 to iters do
      if bus.Dsm_obs.Probe.on land Dsm_obs.Probe.check <> 0 then
        Dsm_obs.Probe.emit bus
          (Dsm_obs.Probe.Clock_merge { time = 0.0; pid = 0 });
      acc := !acc + i
    done
  in
  let plain () =
    for i = 1 to iters do
      acc := !acc + i
    done
  in
  let guard_ns = Float.max 0.0 (timed guarded -. timed plain) in
  ignore !acc;
  let sites = ref 0 in
  single_writer_workload
    ~on_machine:(fun m ->
      Dsm_obs.Probe.attach
        (Dsm_sim.Engine.probe (Dsm_rdma.Machine.sim m))
        Dsm_obs.Probe.all
        (fun _ -> incr sites))
    ();
  let sites_per_op = float_of_int !sites /. 64.0 in
  let op_reps = if smoke then 1 else 30 in
  let best = ref infinity in
  for _ = 1 to op_reps do
    let t0 = Monotonic_clock.get () in
    single_writer_workload ();
    let dt = Monotonic_clock.get () -. t0 in
    if dt < !best then best := dt
  done;
  let op_ns = !best /. 64.0 in
  let pct = 100.0 *. guard_ns *. sites_per_op /. op_ns in
  (guard_ns, sites_per_op, op_ns, pct)

let probe_overhead_pct = ref None

(* ISSUE 9: the flight recorder's marginal cost on the same checked-put
   workload, hand-timed best-of-reps like the probe row (no r², exempt
   from the OLS confidence gate). A sink turns on the classes it reads,
   and each of their emit sites then pays event-payload construction —
   that is the price of observing at all, common to meters, timelines
   and rings alike. What the ring itself adds on top is its record
   path: one slot store. So the row compares a run observed by a no-op
   sink of the ring's classes against a run observed by the ring,
   and the --json run gates that marginal cost at the same <= 3% bar as
   the disabled-guard row: wherever telemetry is already attached,
   adding the flight recorder is free. The same row also times the run
   with no sink at all and reports the ring against that: the honest
   cost of being observed, reported but not gated. *)
let flight_recorder_overhead ~smoke () =
  let reps = if smoke then 10 else 100 in
  let timed body =
    let best = ref infinity in
    for _ = 1 to reps do
      let t0 = Monotonic_clock.get () in
      body ();
      let dt = Monotonic_clock.get () -. t0 in
      if dt < !best then best := dt
    done;
    !best /. 64.0
  in
  let unobserved_ns = timed (fun () -> single_writer_workload ()) in
  let observed_ns =
    timed (fun () ->
        single_writer_workload
          ~on_machine:(fun m ->
            Dsm_obs.Probe.attach
              (Dsm_sim.Engine.probe (Dsm_rdma.Machine.sim m))
              Dsm_obs.Probe.(all land lnot apply)
              (fun _ -> ()))
          ())
  in
  let recorded_ns =
    timed (fun () ->
        single_writer_workload
          ~on_machine:(fun m ->
            ignore
              (Dsm_obs.Flight.attach
                 (Dsm_sim.Engine.probe (Dsm_rdma.Machine.sim m))))
          ())
  in
  let pct_over base =
    if base > 0.0 then Float.max 0.0 (100.0 *. (recorded_ns -. base) /. base)
    else 0.0
  in
  (unobserved_ns, observed_ns, recorded_ns, pct_over observed_ns,
   pct_over unobserved_ns)

let flight_overhead_pct = ref None

(* ISSUE 10: the memory-model refactor's indirection cost on the same
   checked-put workload, hand-timed best-of-reps like the rows above.
   Ordering decisions that used to be hard-coded in the machine and the
   detector are now read from a per-model hook record (unpacked at
   construction); the nic_atomic row compares the defaulted
   construction against the explicit-model one — every hook consulted,
   same answers — and the --json run gates that at the <= 3% bar: the
   paper's model must not pay for the pluggability. The relaxed row
   reruns the same workload under the weaker backend for scale; its
   puts are single-word, so its delta is also pure indirection, but it
   is reported, not gated (a semantically different backend is allowed
   to cost what it costs). *)
let model_overhead ~smoke () =
  let reps = if smoke then 10 else 100 in
  let timed body =
    let best = ref infinity in
    for _ = 1 to reps do
      let t0 = Monotonic_clock.get () in
      body ();
      let dt = Monotonic_clock.get () -. t0 in
      if dt < !best then best := dt
    done;
    !best /. 64.0
  in
  let base_ns = timed (fun () -> single_writer_workload ()) in
  let nic_ns =
    timed (fun () ->
        single_writer_workload ~model:Dsm_rdma.Model.Nic_atomic ())
  in
  let relaxed_ns =
    timed (fun () -> single_writer_workload ~model:Dsm_rdma.Model.Relaxed ())
  in
  let pct_vs base v =
    if base > 0.0 then Float.max 0.0 (100.0 *. (v -. base) /. base) else 0.0
  in
  (base_ns, nic_ns, pct_vs base_ns nic_ns, relaxed_ns, pct_vs base_ns relaxed_ns)

let model_overhead_pct = ref None

(* Deterministic telemetry rows: the simulation is deterministic, so the
   counters a fixed workload meters are exact numbers worth tracking
   across PRs next to the timings. *)
let metrics_rows prefix reg =
  let snap = Dsm_obs.Metrics.snapshot reg in
  List.map
    (fun (name, v) -> (prefix ^ "/" ^ name, [ ("value", Json.Int v) ]))
    snap.Dsm_obs.Metrics.counters
  @ List.map
      (fun (name, h) ->
        ( prefix ^ "/" ^ name,
          [
            ("count", Json.Int h.Dsm_obs.Metrics.count);
            ("mean", num (Some (Dsm_obs.Metrics.mean h)));
          ] ))
      snap.Dsm_obs.Metrics.histograms

(* Clock words per op on the adaptive wire, as a linear regression over
   growing op budgets on a live machine — the slope is
   the marginal wire cost of one checked put (setup traffic lands in
   the intercept), and the fit's r² gates the row exactly like the
   timed rows' OLS r² does. The workload is the delta-friendly regime:
   a few active workers in a large machine, clocks enriched through a
   shared lock, then disjoint puts. *)
let clock_words_points ~smoke ~n =
  let workers = if smoke then 2 else 4 in
  let budgets = if smoke then [ 2; 4; 6 ] else [ 5; 10; 20; 40 ] in
  List.map
    (fun ops ->
      let m = Harness.fresh_machine ~n () in
      let d = Dsm_core.Detector.create m () in
      let var =
        Dsm_core.Detector.alloc_shared d ~pid:0 ~name:"x" ~len:(workers + 1)
          ()
      in
      let shared = Dsm_core.Detector.alloc_shared d ~pid:0 ~name:"c" ~len:1 () in
      let mu = Dsm_core.Detector.alloc_shared d ~pid:0 ~name:"mu" ~len:1 () in
      for pid = 1 to workers do
        Dsm_rdma.Machine.spawn m ~pid (fun p ->
            let buf = Dsm_rdma.Machine.alloc_private m ~pid ~len:1 () in
            let scratch = Dsm_rdma.Machine.alloc_private m ~pid ~len:1 () in
            let h = Dsm_core.Detector.lock d p mu in
            Dsm_core.Detector.get d p ~src:shared ~dst:scratch;
            Dsm_core.Detector.put d p ~src:scratch ~dst:shared;
            Dsm_core.Detector.unlock d p h;
            let dst =
              Dsm_memory.Addr.region ~pid:0 ~space:Dsm_memory.Addr.Public
                ~offset:(var.Dsm_memory.Addr.base.Dsm_memory.Addr.offset + pid)
                ~len:1
            in
            for _ = 1 to ops do
              Dsm_rdma.Machine.compute p 1.0;
              Dsm_core.Detector.put d p ~src:buf ~dst
            done)
      done;
      Harness.run_to_completion m;
      ( float_of_int (workers * ops),
        float_of_int (Dsm_rdma.Machine.clock_words_sent m) ))
    budgets

(* Least-squares slope and r² of y against x. *)
let fit_slope_r2 pts =
  let n = float_of_int (List.length pts) in
  let sx = List.fold_left (fun a (x, _) -> a +. x) 0.0 pts in
  let sy = List.fold_left (fun a (_, y) -> a +. y) 0.0 pts in
  let sxx = List.fold_left (fun a (x, _) -> a +. (x *. x)) 0.0 pts in
  let syy = List.fold_left (fun a (_, y) -> a +. (y *. y)) 0.0 pts in
  let sxy = List.fold_left (fun a (x, y) -> a +. (x *. y)) 0.0 pts in
  let cov = (n *. sxy) -. (sx *. sy) in
  let varx = (n *. sxx) -. (sx *. sx) in
  let vary = (n *. syy) -. (sy *. sy) in
  let slope = cov /. varx in
  let r2 = if vary = 0.0 then 1.0 else cov *. cov /. (varx *. vary) in
  (slope, r2)

let clock_words_rows ~smoke () =
  List.map
    (fun n ->
      let slope, r2 = fit_slope_r2 (clock_words_points ~smoke ~n) in
      ( Printf.sprintf "clock_words_per_op_n%d" n,
        [ ("words_per_op", num (Some slope)); ("r2", num (Some r2)) ] ))
    [ 64; 256; 1024 ]

let detector_extra_rows ~smoke () =
  let guard_ns, sites_per_op, op_ns, pct = probe_overhead ~smoke () in
  probe_overhead_pct := Some pct;
  Printf.printf
    "detector/probe_disabled_overhead: %.3f ns/site x %.1f sites vs %.0f \
     ns/op = %.3f%%\n\
     %!"
    guard_ns sites_per_op op_ns pct;
  let f_unobserved, f_observed, f_recorded, f_pct, f_vs_unobserved =
    flight_recorder_overhead ~smoke ()
  in
  flight_overhead_pct := Some f_pct;
  Printf.printf
    "detector/flight_recorder_overhead: %.0f ns/op observed vs %.0f ns/op \
     ring-recorded = %.3f%%; %.0f ns/op unobserved, ring = +%.3f%%\n\
     %!"
    f_observed f_recorded f_pct f_unobserved f_vs_unobserved;
  let m_base, m_nic, m_nic_pct, m_relaxed, m_relaxed_pct =
    model_overhead ~smoke ()
  in
  model_overhead_pct := Some m_nic_pct;
  Printf.printf
    "detector/model_overhead: %.0f ns/op defaulted vs %.0f ns/op \
     nic_atomic (= %.3f%%), %.0f ns/op relaxed (= %.3f%%)\n\
     %!"
    m_base m_nic m_nic_pct m_relaxed m_relaxed_pct;
  let reg = Dsm_obs.Metrics.create () in
  single_writer_workload
    ~on_machine:(fun m ->
      Dsm_obs.Meter.attach reg (Dsm_sim.Engine.probe (Dsm_rdma.Machine.sim m)))
    ();
  ( "detector/probe_disabled_overhead",
    [
      ("ns_per_run", num (Some guard_ns));
      ("sites_per_op", num (Some sites_per_op));
      ("op_ns", num (Some op_ns));
      ("overhead_pct", num (Some pct));
    ] )
  :: ( "detector/flight_recorder_overhead",
       [
         ("observed_op_ns", num (Some f_observed));
         ("recorded_op_ns", num (Some f_recorded));
         ("overhead_pct", num (Some f_pct));
         ("unobserved_op_ns", num (Some f_unobserved));
         ("vs_unobserved_pct", num (Some f_vs_unobserved));
       ] )
  :: ( "detector/model_overhead_nic_atomic",
       [
         ("defaulted_op_ns", num (Some m_base));
         ("explicit_op_ns", num (Some m_nic));
         ("overhead_pct", num (Some m_nic_pct));
       ] )
  :: ( "detector/model_overhead_relaxed",
       [
         ("defaulted_op_ns", num (Some m_base));
         ("relaxed_op_ns", num (Some m_relaxed));
         ("overhead_pct", num (Some m_relaxed_pct));
       ] )
  :: (clock_words_rows ~smoke () @ metrics_rows "detector_metrics" reg)

let probe_overhead_gate ~smoke () =
  if not smoke then begin
    (match !probe_overhead_pct with
    | Some pct when pct > 3.0 ->
        Printf.eprintf
          "probe_disabled_overhead %.3f%% exceeds the 3%% gate; the numbers \
           were not blessed.\n"
          pct;
        exit 1
    | _ -> ());
    (match !flight_overhead_pct with
    | Some pct when pct > 3.0 ->
        Printf.eprintf
          "flight_recorder_overhead %.3f%% exceeds the 3%% gate; the \
           numbers were not blessed.\n"
          pct;
        exit 1
    | _ -> ());
    match !model_overhead_pct with
    | Some pct when pct > 3.0 ->
        Printf.eprintf
          "model_overhead_nic_atomic %.3f%% exceeds the 3%% gate; the \
           numbers were not blessed.\n"
          pct;
        exit 1
    | _ -> ()
  end

let explore_metrics_rows ~smoke () =
  let reg = Dsm_obs.Metrics.create () in
  let runs = if smoke then 10 else 200 in
  (* one metered explore session, all into a single registry: a walk
     batch over a workload that actually routes puts/gets through the
     checked detector (getput's scripted window monitor bypasses it and
     left dead zero detector.* rows), then a pruned DPOR search so the
     explore.dpor_pruned counter tracks real prunes *)
  ignore
    (Parallel.explore_random ~check_determinism:false ~stop_on_first:false
       ~metrics:reg ~jobs:1
       (explore_spec ~scenario:"workload:random" ~n:3 ())
       ~runs);
  ignore
    (Dpor.explore ~metrics:reg ~stop_on_first:false
       ~max_runs:(if smoke then 50 else 2000)
       { (explore_spec ~scenario:"workload:master-worker-racy" ~n:3 ()) with
         seed = 1
       }
       ~depth:10);
  metrics_rows "explore_metrics" reg

let write_json ?(schema = "dsmcheck-bench-detector/1") path rows =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n  ";
  Json.key ~spaced:true buf "schema";
  Json.string buf schema;
  Buffer.add_string buf ",\n  \"unit\": \"ns_per_run\",\n  \"results\": [\n";
  let last = List.length rows - 1 in
  List.iteri
    (fun i (name, fields) ->
      Buffer.add_string buf "    { ";
      Json.members ~spaced:true buf (("name", Json.String name) :: fields);
      Buffer.add_string buf (if i = last then " }\n" else " },\n"))
    rows;
  Buffer.add_string buf "  ]\n}\n";
  Out_channel.with_open_text path (fun oc -> Buffer.output_buffer oc buf);
  Printf.printf "wrote %s (%d benchmarks)\n%!" path (List.length rows)

let run_micro ~smoke () =
  print_newline ();
  print_endline "=== Micro-benchmarks (wall clock, Bechamel OLS ns/run) ===";
  print_newline ();
  print_rows (measure ~smoke micro_tests);
  print_newline ();
  print_endline "=== Detector hot path (see BENCH_detector.json via --json) ===";
  print_newline ();
  print_rows (measure ~smoke detector_tests);
  print_newline ();
  print_endline
    "=== Schedule explorer (see BENCH_explore.json via --json-explore) ===";
  print_newline ();
  print_rows (measure ~smoke explore_tests)

let run_json ~smoke ?schema ?(extra_rows = fun () -> []) tests path =
  (* Fail before spending the measurement budget on an unwritable path. *)
  (match open_out_gen [ Open_wronly; Open_append; Open_creat ] 0o644 path with
  | oc -> close_out oc
  | exception Sys_error msg ->
      Printf.eprintf "cannot write %s: %s\n" path msg;
      exit 1);
  let rows = measure ~smoke tests in
  print_rows rows;
  write_json ?schema path (List.map json_row_of_ols rows @ extra_rows ());
  (* Gate after writing, so a rejected artifact can still be inspected. *)
  if not smoke then
    match low_confidence rows with
    | [] -> ()
    | bad ->
        List.iter
          (fun (name, r2) ->
            Printf.eprintf "low-confidence fit: %s (r2 %s < %.2f)\n" name
              (Option.fold ~none:"-" ~some:(Printf.sprintf "%.2f") r2)
              r2_floor)
          bad;
        Printf.eprintf
          "%d benchmark fit(s) below the r2 floor; the numbers were not \
           blessed. Re-run on a quieter machine or raise the budget.\n"
          (List.length bad);
        exit 1

(* ---------- driver ---------- *)

let usage () =
  prerr_endline
    "usage: main.exe [--json [file] | --json-explore [file]] [--smoke]";
  exit 1

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let smoke = List.mem "--smoke" args in
  let args = List.filter (fun a -> a <> "--smoke") args in
  match args with
  | [ "--json" ] ->
      run_json ~smoke ~extra_rows:(detector_extra_rows ~smoke) detector_tests
        "BENCH_detector.json";
      probe_overhead_gate ~smoke ()
  | [ "--json"; path ] ->
      run_json ~smoke ~extra_rows:(detector_extra_rows ~smoke) detector_tests
        path;
      probe_overhead_gate ~smoke ()
  | [ "--json-explore" ] ->
      run_json ~smoke ~schema:"dsmcheck-bench-explore/1"
        ~extra_rows:(fun () ->
          parallel_json_rows ~smoke () @ dpor_json_rows ~smoke ()
          @ explore_metrics_rows ~smoke ())
        explore_tests "BENCH_explore.json"
  | [ "--json-explore"; path ] ->
      run_json ~smoke ~schema:"dsmcheck-bench-explore/1"
        ~extra_rows:(fun () ->
          parallel_json_rows ~smoke () @ dpor_json_rows ~smoke ()
          @ explore_metrics_rows ~smoke ())
        explore_tests path
  | [] -> run_micro ~smoke ()
  | _ -> usage ()
