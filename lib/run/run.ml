module Machine = Dsm_rdma.Machine
module Model = Dsm_rdma.Model
module Coherence = Dsm_rdma.Coherence
module Detector = Dsm_core.Detector
module Config = Dsm_core.Config
module Env = Dsm_pgas.Env
module Collectives = Dsm_pgas.Collectives
module Explore = Dsm_explore.Explore
module Token = Dsm_explore.Token
module Scenario = Dsm_explore.Scenario
module Metrics = Dsm_obs.Metrics
module Timeline = Dsm_obs.Timeline

include Run_types

let workloads =
  [
    ("random", Random);
    ("master-worker", Master_worker);
    ("stencil", Stencil);
    ("pipeline", Pipeline);
    ("locked-counter", Locked_counter);
  ]

type search = Replay of Token.t | Compare of Model.t * Model.t | Search

type _ checked =
  | Shot : one_shot * Dsm_lang.Ir.program option -> ran checked
  | Explored : explore * search -> explored checked

let ( let* ) = Result.bind
let usage r = Result.map_error (fun msg -> Usage msg) r

(* The first of [checks] that fails, as a usage error: each check is a
   condition that must hold and the message that says why it does not. *)
let checks l =
  match List.find_opt (fun (ok, _) -> not ok) l with
  | Some (_, msg) -> Error (Usage msg)
  | None -> Ok ()

(* A checking function's result as one of [checks]. *)
let holds = function Ok _ -> (true, "") | Error msg -> (false, msg)

(* The one place a run's exceptions become errors. A bad argument, an
   unreadable or unwritable file and a segment too small for [n]
   processes are bad input; a fault of the program's own processes is
   the program's. Every other exception is a dsmcheck bug and stays
   one. *)
let guard ~n ~file f =
  try f () with
  | Invalid_argument msg | Sys_error msg -> Error (Usage msg)
  | Dsm_memory.Allocator.Exhausted { capacity; used; want } ->
      Error
        (Usage
           (Printf.sprintf
              "-n %d does not fit: a %d-word segment is full (%d words used, \
               %d more wanted); use a smaller -n"
              n capacity used want))
  | Dsm_sim.Engine.Process_failure (proc, Dsm_lang.Exec.Runtime_error msg) ->
      Error (Fault { file; proc; msg })

let write path contents =
  Out_channel.with_open_text path (Fun.flip output_string contents)

let write_opt path contents = Option.iter (fun p -> write p (contents ())) path

(* Write the timeline, then validate the bytes on disk against the
   trace-event schema, so a bad export fails here instead of inside
   Perfetto. *)
let write_trace timeline path =
  write path (Timeline.to_json_string timeline);
  match
    Dsm_obs.Trace_json.validate_trace
      (In_channel.with_open_text path In_channel.input_all)
  with
  | Ok stats -> (path, stats)
  | Error msg ->
      failwith
        (Printf.sprintf "%s: exporter wrote invalid trace JSON: %s" path msg)

(* ---------- one-shot runs ---------- *)

(* A program's row in [Scenario.min_procs]: the plain ring of [scale]
   is no scenario and reads the default row, and a figure runs on its
   own minimum whatever [-n] asks for. *)
let min_procs = function
  | Workload { which; _ } ->
      Scenario.min_procs
        ("workload:" ^ fst (List.find (fun (_, w) -> w = which) workloads))
  | Scale { racy = true; _ } -> Scenario.min_procs "workload:scale"
  | Scale _ -> Scenario.min_procs "scale"
  | Source { path; _ } -> Scenario.min_procs ("prog:" ^ path)
  | Figure _ -> 1

(* Random accesses and stencil iterations may be zero; tasks, batches
   and increments may not. *)
let min_ops = function
  | Random | Stencil -> 0
  | Master_worker | Pipeline | Locked_counter -> 1

let validate_shot (o : one_shot) =
  let min = min_procs o.program in
  let enough =
    ( o.n >= min,
      Printf.sprintf "need at least %d process%s" min
        (if min = 1 then "" else "es") )
  in
  let collectives = holds (Collectives.check_n o.n) in
  (* a program is read, parsed and lowered once, here *)
  let* ir =
    match o.program with
    | Source { path; instrument } ->
        guard ~n:o.n ~file:path (fun () ->
            Dsm_lang.Compile.load ~instrument path
            |> Result.map Option.some |> usage)
    | _ -> Ok None
  in
  let* () =
    checks
      (match o.program with
      | Workload { which; ops; _ } ->
          [
            ( ops >= min_ops which,
              Printf.sprintf "--ops must be at least %d for this workload"
                (min_ops which) );
            enough;
            collectives;
          ]
      | Scale { rounds; chunk; _ } ->
          [
            (rounds >= 1, "--rounds must be a positive number of pushes");
            (chunk >= 1, "--chunk must be a positive number of slots");
            enough;
          ]
      | Source _ -> [ enough; collectives ]
      | Figure _ -> [ enough ])
  in
  Ok (Shot (o, ir))

let env_of machine = function
  | Some d -> Env.checked d
  | None -> Env.plain machine

(* Build and populate the machine: returns it with the detector whose
   verdict the command reports, the coherence checker and the program's
   runtime. *)
let populate sim (o : one_shot) ir =
  let n = o.n and model = o.model in
  match (o.program, ir) with
  | Workload w, _ ->
      let machine = Machine.create sim ~n ~model () in
      let checker =
        if w.coherence then Some (Coherence.attach machine) else None
      in
      let config =
        {
          Config.default with
          Config.record_trace = w.trace_dot <> None || w.trace_csv <> None;
          granularity = Config.Word;
        }
      in
      let detector =
        if o.detect then
          Some (Detector.create machine ~config ~verbose:o.verbose ())
        else None
      in
      let env = env_of machine detector in
      let collectives = Collectives.create env in
      let seed = w.seed and ops = w.ops in
      (match w.which with
      | Random ->
          Dsm_workload.Random_access.setup env ~collectives
            { Dsm_workload.Random_access.default with ops_per_proc = ops; seed }
      | Master_worker ->
          Dsm_workload.Master_worker.setup env ~collectives
            {
              Dsm_workload.Master_worker.default with
              tasks_per_worker = ops;
              racy = w.racy;
              seed;
            }
      | Stencil ->
          ignore
            (Dsm_workload.Stencil.setup env ~collectives
               { Dsm_workload.Stencil.default with iterations = ops; seed })
      | Pipeline ->
          Dsm_workload.Pipeline.setup env
            { Dsm_workload.Pipeline.default with batches = ops; seed }
      | Locked_counter ->
          Dsm_workload.Locked_counter.setup env
            {
              Dsm_workload.Locked_counter.default with
              increments_per_proc = ops;
              seed;
            });
      (machine, detector, checker, None)
  | Scale s, _ ->
      (* tiny segments: at n = 1024 the default 4096-word segments would
         cost tens of megabytes per run for buffers of a few words *)
      let words = max 64 s.chunk in
      let machine =
        Machine.create sim ~n ~private_words:words ~public_words:words ~model
          ()
      in
      let config = { Config.default with Config.granularity = Config.Word } in
      let detector =
        if o.detect then Some (Detector.create machine ~config ()) else None
      in
      Dsm_workload.Scale.setup (env_of machine detector)
        {
          Dsm_workload.Scale.rounds = s.rounds;
          chunk = s.chunk;
          racy = s.racy;
          batched = s.batched;
          think_mean = 0.0;
          seed = s.seed;
        };
      (machine, detector, None, None)
  | Source _, ir ->
      let ir = Option.get ir in
      let machine = Machine.create sim ~n ~model () in
      let detector =
        if o.detect then Some (Detector.create machine ~verbose:o.verbose ())
        else None
      in
      let rt = Dsm_lang.Exec.setup machine ?detector ir in
      (machine, detector, None, Some (ir, rt))
  | Figure name, _ ->
      let n = max n Dsm_experiments.Figures.figure_min_nodes in
      let machine = Machine.create sim ~n ~model () in
      let detector =
        match Dsm_experiments.Figures.build_figure name machine with
        | Ok d -> d
        | Error msg -> invalid_arg msg
      in
      (machine, (if o.detect then detector else None), None, None)

(* Attach the sinks [o] needs before the machine is populated, so they
   observe the run end to end (every sink is passive), run the machine
   once, then write what the run was asked to leave behind, in the order
   the command prints it. *)
let exec_shot (o : one_shot) ir =
  let seed =
    match o.program with
    | Workload { seed; _ } | Scale { seed; _ } -> Some seed
    | Source _ | Figure _ -> None
  in
  let sim = Dsm_sim.Engine.create ?seed () in
  let probe = Dsm_sim.Engine.probe sim in
  let timeline = Option.map (fun _ -> Timeline.attach probe) o.trace_out in
  let registry =
    if o.metrics = No_metrics then None
    else begin
      let r = Metrics.create () in
      Dsm_obs.Meter.attach r probe;
      Some r
    end
  in
  let flight =
    if o.explain || o.race_report <> None then
      Some (Dsm_obs.Flight.attach probe)
    else None
  in
  let machine, detector, coherence, program = populate sim o ir in
  let t0 = Unix.gettimeofday () in
  let completed =
    match Machine.run machine with
    | Dsm_sim.Engine.Completed -> true
    | _ -> false
  in
  let wall = Unix.gettimeofday () -. t0 in
  (match (o.program, detector) with
  | Workload w, Some d ->
      write_opt w.signals_csv (fun () ->
          Dsm_core.Report.to_csv (Detector.report d));
      Option.iter
        (fun trace ->
          write_opt w.trace_dot (fun () -> Dsm_trace.Trace.to_dot trace);
          write_opt w.trace_csv (fun () -> Dsm_trace.Export.to_csv trace))
        (Detector.trace d)
  | _ -> ());
  (* every race signal explained from the flight-recorder window and
     each granule's provenance *)
  let explanations =
    Option.map
      (fun flight ->
        match detector with
        | None -> []
        | Some d ->
            Dsm_core.Diagnose.explain_report
              ~window:(Dsm_obs.Flight.events flight) (Detector.report d))
      flight
  in
  write_opt o.race_report (fun () ->
      Dsm_obs.Explain.list_to_json (Option.value explanations ~default:[]));
  (match (o.metrics, registry) with
  | Metrics_file path, Some r ->
      write path (Metrics.to_json_string (Metrics.snapshot r))
  | _ -> ());
  let trace =
    match (timeline, o.trace_out) with
    | Some tl, Some path -> Some (write_trace tl path)
    | _ -> None
  in
  Ok
    { machine; detector; coherence; program; wall; completed; explanations;
      registry; trace }

(* ---------- explored runs ---------- *)

let validate_explore (e : explore) =
  let min = Scenario.min_procs e.spec.scenario in
  let diff = e.diff_models <> None and replay = e.replay <> None in
  let* () =
    checks
      [
        holds (Token.validate (Token.make e.spec []));
        ( replay || e.spec.n >= min,
          Printf.sprintf
            "scenario %s needs at least %d processes; pass -n %d or more"
            e.spec.scenario min min );
        (e.runs >= 1, "--runs must be a positive number of runs");
        (e.jobs >= 1, "--jobs must be a positive number of worker domains");
        ( Option.fold ~none:true ~some:(fun d -> d >= 0) e.depth,
          "--depth must be a non-negative number of choice points" );
        (e.chunk >= 1, "--chunk must be a positive number of runs per claim");
        ( not (diff && replay),
          "--diff-models explores fresh schedules; it cannot be combined \
           with --replay (replay one token per model instead)" );
        ( not (diff && e.dpor),
          "--diff-models replays every explored schedule under both \
           backends; --dpor's pruning is justified per model and does not \
           compose — drop one of them" );
        ( not (diff && e.jobs > 1),
          "--diff-models is a single-domain comparison; drop --jobs" );
        ( not (e.dpor && replay),
          "--dpor cannot be combined with --replay: a token replays exactly \
           one schedule, there is nothing to prune" );
        ( not (e.dpor && e.jobs > 1),
          "--dpor is a single-domain search (its sleep sets are sequential \
           state); drop --jobs or use --jobs 1" );
        ( not (e.dpor && e.depth = None),
          "--dpor requires --depth: it prunes the bounded-exhaustive DFS, \
           not random walks" );
      ]
  in
  match (e.replay, e.diff_models) with
  | Some text, _ -> (
      let* token = usage (Token.of_string text) in
      match e.model with
      | Some m when m <> token.spec.model && not e.force ->
          (* A token replays the run that minted it, and the run is a
             function of the model: replaying under another backend
             would "reproduce" a different run. *)
          Error
            (Usage
               (Printf.sprintf
                  "token was minted under --model %s but --model %s was \
                   given; the schedule and verdict are model-dependent. Pass \
                   --force to replay the decision prefix under %s anyway."
                  (Model.name token.spec.model) (Model.name m) (Model.name m)))
      | Some model ->
          let spec = { token.spec with model } in
          Ok (Explored (e, Replay { token with spec }))
      | None -> Ok (Explored (e, Replay token)))
  | None, Some pair -> (
      match String.split_on_char ',' pair with
      | [ a; b ] -> (
          match Model.(of_name (String.trim a), of_name (String.trim b)) with
          | Error msg, _ | _, Error msg -> Error (Usage msg)
          | Ok ma, Ok mb when ma = mb ->
              Error
                (Usage
                   ("--diff-models needs two distinct backends (got "
                  ^ Model.name ma ^ " twice)"))
          | Ok ma, Ok mb -> Ok (Explored (e, Compare (ma, mb))))
      | _ ->
          Error
            (Usage
               "--diff-models takes exactly two comma-separated backends, \
                e.g. nic_atomic,relaxed"))
  | None, None -> Ok (Explored (e, Search))

(* One deterministic explanation pass over a token: a flight-recorded
   replay, its race report, and a timeline annotated with the
   explanations when [trace_out] is set. Every explained token goes
   through here, so the bytes do not depend on how it was found. *)
let explain_token (e : explore) ~trace_out token =
  if e.explain || e.race_report <> None || trace_out <> None then
    let timeline = Option.map (fun _ -> Timeline.create ()) trace_out in
    let o = Dsm_explore.Explain_run.of_token ?timeline token in
    write_opt e.race_report (fun () -> o.json);
    Some
      ( o.text,
        match (timeline, trace_out) with
        | Some tl, Some path -> Some (write_trace tl path)
        | _ -> None )
  else None

(* Replay a token with probe sinks that collect the message arrows and
   race marks of the space-time diagram, with the figures' collector. *)
let replay e token =
  let arrows = ref (fun () -> []) and marks = ref [] in
  let probe bus =
    arrows := Dsm_experiments.Harness.collect_arrows bus;
    Dsm_obs.Probe.attach bus Dsm_obs.Probe.race (function
      | Dsm_obs.Probe.Race_signal { time; pid; node; offset; len; _ } ->
          marks :=
            {
              Dsm_trace.Spacetime.time;
              pid;
              text = Printf.sprintf "RACE n%d+%d/%d" node offset len;
            }
            :: !marks
      | _ -> ())
  in
  let* result = usage (Explore.replay ~probe token) in
  Ok
    (Replayed
       {
         token;
         result;
         arrows = !arrows ();
         marks = List.rev !marks;
         explained = explain_token e ~trace_out:None token;
       })

(* Explore under [ma], replay every schedule under [mb], and explain the
   side that signalled races: its explanation names the accesses the
   missing edge would have ordered. *)
let diff_models (e : explore) ma mb =
  let outcome =
    Dsm_explore.Diff.run ?depth:e.depth ~runs:e.runs e.spec (ma, mb)
  in
  let explained =
    Option.bind outcome.first (fun f ->
        explain_token e ~trace_out:None
          (if f.races_b > f.races_a then f.token_b else f.token_a))
  in
  Ok (Compared { models = (ma, mb); outcome; explained })

(* A rate-limited stderr heartbeat fed by the pool's completion
   counters; the CAS on [last] keeps two workers from printing the same
   line. *)
let heartbeat jobs =
  if jobs <= 1 then None
  else
    let t0 = Unix.gettimeofday () in
    let last = Atomic.make t0 in
    Some
      (fun ~runs ~violated ->
        let now = Unix.gettimeofday () in
        let prev = Atomic.get last in
        if now -. prev >= 1.0 && Atomic.compare_and_set last prev now then
          Printf.eprintf "explore: %d runs, %d violating, %.0f runs/s\n%!" runs
            violated
            (float_of_int runs /. (now -. t0)))

let search (e : explore) =
  (* --expect-races needs the merged race counter even without
     --metrics *)
  let registry =
    if e.metrics || e.expect_races <> None then Some (Metrics.create ())
    else None
  in
  let runs, violated, pruned, first =
    match e.depth with
    | Some depth when e.dpor ->
        let st =
          Dsm_explore.Dpor.explore ?metrics:registry e.spec ~depth
            ~max_runs:e.runs
        in
        (st.runs, st.violated, Some st.pruned, st.first)
    | _ ->
        (* a pool of one worker is the sequential explorer, and more
           workers merge bit-identically to it *)
        let st =
          match e.depth with
          | Some depth ->
              Dsm_explore.Parallel.explore_exhaustive ~jobs:e.jobs
                ?metrics:registry e.spec ~depth ~max_runs:e.runs
          | None ->
              Dsm_explore.Parallel.explore_random ~jobs:e.jobs ~chunk:e.chunk
                ?metrics:registry ?progress:(heartbeat e.jobs) e.spec
                ~runs:e.runs
        in
        (st.runs, st.violated, None, st.first)
  in
  let found =
    Option.map
      (fun (_, (r : Explore.run_result)) ->
        let decisions =
          if e.no_minimize then Token.trim_trailing_zeros r.decisions
          else Explore.minimize ?metrics:registry e.spec r.decisions
        in
        let token = Token.make e.spec decisions in
        (r, token, explain_token e ~trace_out:e.trace_out_violation token))
      first
  in
  let races =
    match (found, e.expect_races, registry) with
    | None, Some want, Some reg ->
        Some
          (Metrics.value (Metrics.counter reg "detector.race_signal"), want)
    | _ -> None
  in
  let metrics = if e.metrics then registry else None in
  Ok (Searched { runs; violated; pruned; found; metrics; races })

let failure = function
  | Compared { outcome = { first = Some _; _ }; _ } ->
      Some "model-dependent verdict (see the per-model repro tokens)"
  | Searched { found = Some _; _ } ->
      Some "invariant violated (see repro token)"
  | Searched { races = Some (0, true); _ } ->
      Some
        "expected races, but no schedule signalled one (detector.race_signal \
         = 0)"
  | Searched { races = Some (races, false); _ } when races > 0 ->
      Some
        (Printf.sprintf
           "expected a race-free scenario, but detector.race_signal = %d" races)
  | Replayed _ | Compared _ | Searched _ -> None

let validate : type a. a spec -> (a checked, error) result = function
  | One_shot o -> validate_shot o
  | Explore e -> validate_explore e

let exec : type a. a checked -> (a, error) result = function
  | Shot (o, ir) ->
      (* only a [.dsm] program's own processes fault *)
      let file = match o.program with Source { path; _ } -> path | _ -> "" in
      guard ~n:o.n ~file (fun () -> exec_shot o ir)
  | Explored (e, Replay token) ->
      guard ~n:token.spec.n ~file:e.spec.scenario (fun () -> replay e token)
  | Explored (e, Compare (ma, mb)) ->
      guard ~n:e.spec.n ~file:e.spec.scenario (fun () -> diff_models e ma mb)
  | Explored (e, Search) ->
      guard ~n:e.spec.n ~file:e.spec.scenario (fun () -> search e)
