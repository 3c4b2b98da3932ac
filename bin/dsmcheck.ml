(* dsmcheck: command-line driver for the DSM race-detection reproduction.

   Subcommands:
     dsmcheck list                      list the paper experiments
     dsmcheck experiment E5             replay one experiment (or "all")
     dsmcheck workload random ...       run a workload under the detector
     dsmcheck scale ...                 the neighbour-push scaling run
     dsmcheck run FILE | --scenario F   a .dsm program or a figure's run
     dsmcheck explore SCENARIO ...      search schedules and faults

   Every run goes through [Dsm_run.Run]: a command maps its flags to a
   spec, [Run.validate] and [Run.exec] decide every limit and error, and
   the command prints what the run returns. *)

open Cmdliner
module Machine = Dsm_rdma.Machine
module Model = Dsm_rdma.Model
module Detector = Dsm_core.Detector
module Report = Dsm_core.Report
module Explore = Dsm_explore.Explore
module Token = Dsm_explore.Token
module Run = Dsm_run.Run

let setup_logs verbose =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some (if verbose then Logs.Debug else Logs.Warning))

(* [run FILE] exits with this code when the program itself faults at run
   time (bad index, division by zero, negative compute): the program is
   wrong, not the command line (124) nor dsmcheck (125). *)
let exit_program_fault = 3

(* Validate and run [spec], then [print] what it returns. The one mapping
   from a run's error to an exit code: a usage error is 124 and a
   program fault 3; an exception is a dsmcheck bug, which cmdliner
   reports with 125. *)
let exec ~verbose spec print =
  setup_logs verbose;
  match Result.bind (Run.validate spec) Run.exec with
  | Ok r -> print r
  | Error (Run.Usage msg) -> `Error (false, msg)
  | Error (Run.Fault { file; proc; msg }) ->
      Printf.eprintf "dsmcheck: %s: process %s: %s\n%!" file proc msg;
      exit exit_program_fault

(* ---------- flags ---------- *)

let flag names doc = Arg.(value & flag & info names ~doc)
let verbose_flag doc = flag [ "v"; "verbose" ] doc
let int_opt name default doc =
  Arg.(value & opt int default & info [ name ] ~doc)
let on_by_default name doc = Arg.(value & opt bool true & info [ name ] ~doc)

let n_opt default =
  Arg.(value & opt int default & info [ "n" ] ~docv:"N" ~doc:"Process count.")

let string_opt docv name doc =
  Arg.(value & opt (some string) None & info [ name ] ~docv ~doc)

let model_conv =
  let parse s = Result.map_error (fun msg -> `Msg msg) (Model.of_name s) in
  Arg.conv (parse, fun ppf m -> Format.pp_print_string ppf (Model.name m))

(* [--model] for every command. Unset is [None] so explore can tell an
   explicit backend from the default: replay refuses a token minted
   under a different one. *)
let model_arg ~extra_doc =
  Arg.(
    value
    & opt (some model_conv) None
    & info [ "model" ] ~docv:"MODEL"
        ~doc:
          ("Memory-model backend: nic_atomic (the paper's, default), \
            relaxed, eventual, or seq_consistent. Semantic — it changes \
            the protocol's ordering guarantees and the detector's \
            happens-before edges." ^ extra_doc))

(* ---------- printing ---------- *)

let print_written label = Option.iter (Format.printf "%-15s: %s@." label)

let print_trace =
  Option.iter (fun (path, (s : Dsm_obs.Trace_json.stats)) ->
      Format.printf
        "trace out      : %s (%d events: %d slices, %d instants, %d flow \
         pairs, %d lanes)@."
        path s.events s.slices s.instants s.flows s.lanes)

let print_metrics =
  Option.iter (fun registry ->
      Format.printf "@[<v 2>metrics        :@,%a@]@." Dsm_obs.Metrics.pp
        (Dsm_obs.Metrics.snapshot registry))

let print_sim_time (r : Run.ran) =
  Format.printf "simulated time : %.2f us@."
    (Dsm_sim.Engine.now (Machine.sim r.machine))

let print_messages (r : Run.ran) =
  Format.printf "messages       : %d (%d words)@."
    (Machine.fabric_messages r.machine)
    (Machine.fabric_words r.machine)

(* The detector's verdict: the checked-op count (unless [ops] is false)
   and the race signals grouped per datum. With no detector, [off] says
   so. *)
let detection_summary ?(off = false) ?(ops = true) (r : Run.ran) =
  match r.detector with
  | None -> if off then Format.printf "detection      : off@."
  | Some d ->
      if ops then
        Format.printf "checked ops    : %d@." (Detector.checked_ops d);
      Format.printf "@[<v>%a@]@." Report.pp_grouped (Detector.report d)

(* ---------- one-shot runs ----------

   [workload], [scale], [run FILE] and [run --scenario] each make one
   run. [report] prints the command's own lines; [one_shot] then prints
   the lines of what the run left behind: explanations, race report,
   metrics and timeline. *)

let one_shot (o : Run.one_shot) report =
  exec ~verbose:o.verbose (Run.One_shot o) (fun (r : Run.ran) ->
      if not r.completed then
        prerr_endline "warning: simulation did not complete";
      report r;
      (match r.explanations with
      | Some [] when o.explain ->
          Format.printf "explain        : no race signal to explain@."
      | Some es when o.explain ->
          List.iter (fun e -> print_string (Dsm_obs.Explain.to_text e)) es
      | _ -> ());
      print_written "race report" o.race_report;
      (match o.metrics with
      | Print_metrics -> print_metrics r.registry
      | Metrics_file path -> print_written "metrics" (Some path)
      | No_metrics -> ());
      print_trace r.trace;
      `Ok ())

(* ---------- list ---------- *)

let list_cmd =
  let doc = "List the experiments (E1..E10 reproduce the paper; E11+ are extensions)." in
  let run () =
    List.iter
      (fun e ->
        Format.printf "%-4s %s@." e.Dsm_experiments.Harness.id
          e.Dsm_experiments.Harness.paper_artifact)
      Dsm_experiments.Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

(* ---------- experiment ---------- *)

let experiment_cmd =
  let doc = "Replay one experiment section, or $(b,all) of them." in
  let id =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"ID" ~doc:"Experiment id (E1..E17) or 'all'.")
  in
  let run id =
    let ppf = Format.std_formatter in
    if String.lowercase_ascii id = "all" then begin
      Dsm_experiments.Registry.run_all ppf;
      `Ok ()
    end
    else
      match Dsm_experiments.Registry.run_only ppf id with
      | Ok () -> `Ok ()
      | Error msg -> `Error (false, msg)
  in
  Cmd.v (Cmd.info "experiment" ~doc) Term.(ret (const run $ id))

(* ---------- workload ---------- *)

let run_workload which n seed ops racy detect coherence verbose explain
    trace_dot trace_csv signals_csv =
  one_shot
    {
      program =
        Workload
          { which; ops; racy; coherence; seed; trace_dot; trace_csv;
            signals_csv };
      n; model = Model.default; detect; verbose; explain; race_report = None;
      trace_out = None; metrics = No_metrics;
    }
    (fun r ->
      print_sim_time r;
      Option.iter
        (fun ch ->
          let violations = Dsm_rdma.Coherence.violations ch in
          Format.printf "coherence      : %d words checked, %d violation(s)@."
            (Dsm_rdma.Coherence.checked_words ch)
            (List.length violations);
          List.iter
            (Format.printf "  %a@." Dsm_rdma.Coherence.pp_violation)
            violations)
        r.coherence;
      print_messages r;
      detection_summary ~off:true r;
      Option.iter
        (fun d ->
          print_written "signals csv" signals_csv;
          if verbose then
            Format.printf "@[<v>%a@]@." Report.pp_summary (Detector.report d);
          Option.iter
            (fun trace ->
              Format.printf "trace          : %a@." Dsm_trace.Export.pp_summary
                (Dsm_trace.Export.summary trace);
              print_written "trace graph" trace_dot;
              print_written "trace csv" trace_csv)
            (Detector.trace d))
        r.detector)

let workload_cmd =
  let doc = "Run a workload on the simulated DSM machine." in
  let which =
    Arg.(
      required
      & pos 0 (some (enum Run.workloads)) None
      & info [] ~docv:"WORKLOAD"
          ~doc:
            "random, master-worker, stencil, pipeline, or locked-counter.")
  in
  let explain =
    flag [ "explain" ]
      "Explain every race signal as $(b,run --explain) does: both \
       conflicting accesses with their clocks, the incomparable components, \
       and the last sync edge between the two processes in the \
       flight-recorder window."
  in
  Cmd.v (Cmd.info "workload" ~doc)
    Term.(
      ret
        (const run_workload $ which $ n_opt 4
        $ int_opt "seed" 1 "Random seed."
        $ int_opt "ops" 20 "Ops per process / tasks / iterations."
        $ flag [ "racy" ] "Racy master-worker variant."
        $ on_by_default "detect" "Enable the race detector."
        $ flag [ "coherence" ] "Attach the memory-coherence checker."
        $ verbose_flag "Print signals live." $ explain
        $ string_opt "FILE" "trace-dot" "Write the HB graph as DOT."
        $ string_opt "FILE" "trace-csv" "Write the event trace as CSV."
        $ string_opt "FILE" "signals-csv" "Write the race signals as CSV."))

(* ---------- scale ---------- *)

let run_scale n rounds chunk racy batched model seed detect metrics_file
    verbose =
  one_shot
    {
      program = Scale { rounds; chunk; racy; batched; seed };
      n; model = Option.value model ~default:Model.default; detect; verbose;
      explain = false; race_report = None; trace_out = None;
      metrics =
        Option.fold ~none:Run.No_metrics
          ~some:(fun path -> Run.Metrics_file path)
          metrics_file;
    }
    (fun r ->
      Format.printf "processes      : %d%s@." n
        (if batched then " (batched coherence)" else "");
      print_sim_time r;
      print_messages r;
      match r.detector with
      | None -> Format.printf "detection      : off@."
      | Some d ->
          let ops = Detector.checked_ops d in
          Format.printf "checked ops    : %d (%.0f ops/s wall)@." ops
            (if r.wall > 0. then float_of_int ops /. r.wall else 0.);
          Format.printf "race signals   : %d@."
            (Report.count (Detector.report d));
          Format.printf "clock storage  : %d words, %d compact clock(s)@."
            (Detector.storage_words d) (Detector.epoch_clocks d);
          Format.printf "clock heap     : %d words reachable@."
            (Detector.clock_heap_words d);
          let dense, sparse, delta = Machine.clock_encodings r.machine in
          Format.printf
            "clock traffic  : %d piggybacked words (%d dense, %d sparse, %d \
             delta frames)@."
            (Detector.clock_words_shipped d)
            dense sparse delta)

let scale_cmd =
  let doc =
    "Run the neighbour-push scaling workload: epoch clocks and batched \
     coherence at process counts far past the paper's ~10."
  in
  Cmd.v (Cmd.info "scale" ~doc)
    Term.(
      ret
        (const run_scale $ n_opt 64
        $ int_opt "rounds" 2 "Pushes per process."
        $ int_opt "chunk" 4 "Contiguous slots per push (batch size)."
        $ flag [ "racy" ]
            "Both ring neighbours write each buffer (every slot races)."
        $ on_by_default "batched" "Coalesce each push into one fabric message."
        $ model_arg ~extra_doc:""
        $ int_opt "seed" 1 "Engine seed."
        $ on_by_default "detect" "Enable the race detector."
        $ string_opt "FILE" "metrics"
            "Attach the metrics registry to the run and write its JSON \
             snapshot to $(docv) after completion."
        $ verbose_flag "Verbose logging."))

(* ---------- run (mini-language programs) ---------- *)

let run_program path scenario n model instrument detect verbose trace_out
    metrics explain race_report =
  let spec program : Run.one_shot =
    {
      program; n; model = Option.value model ~default:Model.default; detect;
      verbose; explain; race_report; trace_out;
      metrics = (if metrics then Print_metrics else No_metrics);
    }
  in
  match (path, scenario) with
  | None, None -> `Error (true, "either FILE or --scenario NAME is required")
  | Some _, Some _ -> `Error (true, "FILE and --scenario are mutually exclusive")
  | None, Some name ->
      one_shot (spec (Figure name)) (fun r ->
          Format.printf "scenario       : %s (%d processes)@." name
            (Machine.n r.machine);
          print_sim_time r;
          print_messages r;
          detection_summary r)
  | Some path, None ->
      one_shot (spec (Source { path; instrument })) (fun r ->
          let ir, rt = Option.get r.program in
          Format.printf "wrappers       : %d checked / %d raw accesses@."
            (Dsm_lang.Ir.checked_accesses ir)
            (Dsm_lang.Ir.raw_accesses ir);
          print_sim_time r;
          List.iter
            (fun (d : Dsm_lang.Ast.shared_decl) ->
              let contents = Dsm_lang.Exec.array_contents rt d.name in
              Format.printf "%-14s : [%s]@." d.name
                (String.concat " "
                   (Array.to_list (Array.map string_of_int contents))))
            ir.shared;
          detection_summary ~ops:false r)

let run_cmd =
  let doc =
    "Compile and run a mini-language program (see programs/*.dsm), or one \
     of the paper's figure scenarios with $(b,--scenario)."
  in
  let path =
    Arg.(
      value
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"Program source file.")
  in
  let scenario =
    string_opt "NAME" "scenario"
      (Printf.sprintf "Run a figure scenario instead of a program file: %s."
         (String.concat ", " Dsm_experiments.Figures.figure_names))
  in
  let exits =
    Cmd.Exit.info exit_program_fault
      ~doc:
        "when the program faults at run time: an out-of-bounds index, a \
         division or modulo by zero, or a negative $(b,compute) duration. \
         The file, the process and the fault are printed on stderr."
    :: Cmd.Exit.defaults
  in
  Cmd.v (Cmd.info "run" ~doc ~exits)
    Term.(
      ret
        (const run_program $ path $ scenario $ n_opt 4 $ model_arg ~extra_doc:""
        $ on_by_default "instrument"
            "Let the pre-compiler insert detection wrappers (§5.2)."
        $ on_by_default "detect" "Attach the race detector."
        $ verbose_flag "Print signals live."
        $ string_opt "FILE" "trace-out"
            "Write a Chrome/Perfetto trace-event JSON timeline of the run \
             (load it at ui.perfetto.dev or chrome://tracing)."
        $ flag [ "metrics" ]
            "Print the metrics-registry snapshot after the run."
        $ flag [ "explain" ]
            "Explain every race signal: both conflicting accesses with their \
             clocks, the incomparable components, and the most recent sync \
             edge between the two processes in the flight-recorder window."
        $ string_opt "FILE" "race-report"
            "Write the race explanations as a JSON document to $(docv)."))

(* ---------- explore ---------- *)

let print_violations (r : Explore.run_result) =
  List.iter
    (fun v -> Format.printf "violation      : %a@." Explore.pp_violation v)
    r.violations

(* A token's explanation, as every --explain path prints it. *)
let print_explained (e : Run.explore) = function
  | None -> ()
  | Some (text, trace) ->
      if e.explain then
        if text = "" then
          Format.printf
            "explain        : no race signal and no provenance conflict in \
             this run@."
        else print_string text;
      print_written "race report" e.race_report;
      print_trace trace

let print_explored (e : Run.explore) = function
  | Run.Replayed { token; result; arrows; marks; explained } ->
      Format.printf "fault plan     : %s@."
        (Dsm_net.Fault.to_string token.spec.faults);
      Format.printf "@[<v>%a@]@." Explore.pp_result result;
      print_violations result;
      Format.printf "%s@."
        (Dsm_trace.Spacetime.render ~n:token.spec.n ~arrows ~marks ());
      if result.violations = [] then
        Format.printf "replay         : no invariant violated@.";
      print_explained e explained
  | Compared { models = ma, mb; outcome; explained } -> (
      Format.printf "schedules      : %d explored under %s, replayed under %s@."
        outcome.schedules (Model.name ma) (Model.name mb);
      Format.printf "differing      : %d (%d flip a race verdict)@."
        outcome.differing outcome.race_dependent;
      match outcome.first with
      | None -> Format.printf "verdicts       : identical under both models@."
      | Some f ->
          Format.printf "races          : %d under %s, %d under %s@." f.races_a
            (Model.name ma) f.races_b (Model.name mb);
          Format.printf "repro (%s) : %s@." (Model.name ma)
            (Token.to_string f.token_a);
          Format.printf "repro (%s) : %s@." (Model.name mb)
            (Token.to_string f.token_b);
          List.iter (Format.printf "missing edge   : %s@.") f.missing_edges;
          print_explained e explained)
  | Searched { runs; violated; pruned; found; metrics; races } ->
      (match pruned with
      | Some pruned ->
          let total = runs + pruned in
          Format.printf
            "schedules      : %d explored, %d pruned (%.1f%% of %d \
             candidates), %d violating@."
            runs pruned
            (if total = 0 then 0.0
             else 100.0 *. float_of_int pruned /. float_of_int total)
            total violated
      | None ->
          Format.printf "schedules      : %d explored, %d violating@." runs
            violated);
      (match found with
      | None -> Format.printf "invariants     : all held@."
      | Some (result, token, explained) ->
          print_violations result;
          Format.printf "repro          : %s@." (Token.to_string token);
          print_explained e explained);
      print_metrics metrics;
      Option.iter
        (fun (races, want) ->
          Format.printf "race signals   : %d (expected %s)@." races
            (if want then "some" else "none"))
        races

let run_explore (spec, model) runs depth jobs chunk dpor diff_models force
    replay no_minimize metrics expect_races trace_out_violation explain
    race_report verbose =
  let e =
    {
      Run.spec; model; runs; depth; jobs; chunk; dpor; diff_models; force;
      replay; no_minimize; metrics; expect_races; trace_out_violation;
      explain; race_report;
    }
  in
  exec ~verbose (Run.Explore e) (fun x ->
      print_explored e x;
      match Run.failure x with
      | None -> `Ok ()
      | Some msg -> `Error (false, msg))

(* The run spec from its nine flags: the one place the CLI describes an
   explored run. [--model] stays an option beside the spec, because
   --replay must tell an explicit backend from the default. *)
let spec_term =
  let scenario =
    Arg.(
      value & pos 0 string Token.default_spec.scenario
      & info [] ~docv:"SCENARIO"
          ~doc:"getput, prog:FILE.dsm, or workload:NAME.")
  in
  let latency =
    Arg.(
      value & opt string "infiniband"
      & info [ "latency" ] ~docv:"MODEL"
          ~doc:
            "Fabric latency model: infiniband, ethernet, constant:C, \
             linear:BASE:PER_WORD, logp:L:O:G, or jitter:MEAN:MODEL \
             (microseconds). constant:C makes deliveries tie, which \
             makes --depth trees branch — the regime --dpor prunes.")
  in
  let model =
    model_arg
      ~extra_doc:
        " Repro tokens carry the model, and $(b,--replay) refuses a token \
         minted under a different $(b,--model) unless $(b,--force) is \
         given."
  in
  let make scenario n seed latency model faults reliable bug max_events =
    match
      ( Dsm_net.Latency.of_string latency,
        Option.fold ~none:(Ok Token.default_spec.faults)
          ~some:Dsm_net.Fault.parse faults )
    with
    | Error msg, _ | _, Error msg -> `Error (false, msg)
    | Ok latency, Ok faults ->
        let model' = Option.value model ~default:Token.default_spec.model in
        `Ok
          ( { Token.scenario; n; seed; latency; model = model'; faults;
              reliable; bug; max_events },
            model )
  in
  Term.(
    ret
      (const make $ scenario
      $ n_opt Token.default_spec.n
      $ int_opt "seed" Token.default_spec.seed "Engine seed."
      $ latency $ model
      $ string_opt "PLAN" "faults"
          "Fault plan, e.g. 'drop=0.2,dup=0.1' or '0>1:reorder=0.5' (see \
           the DESIGN notes for the grammar)."
      $ flag [ "reliable" ]
          "Enable the retry/ack transport so faults are survivable."
      $ flag [ "bug" ]
          "Plant the Skip_get_dst_lock protocol bug (for exercising the \
           explorer itself)."
      $ int_opt "max-events" Token.default_spec.max_events
          "Per-run event budget."))

let explore_cmd =
  let doc = "Explore schedules and injected faults, checking protocol invariants." in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Runs a scenario under many scheduler interleavings (randomized \
         walks by default, bounded-exhaustive with $(b,--depth)), \
         optionally under an injected fault plan, and checks protocol \
         invariants after every run: completion, operation/lock \
         quiescence, memory coherence, detector clock monotonicity, and \
         per-schedule determinism.";
      `P
        "On a violation it prints a compact repro token; $(b,--replay) \
         re-executes a token deterministically.";
      `P
        (Printf.sprintf "Scenarios: %s."
           (String.concat ", " Dsm_explore.Scenario.known));
    ]
  in
  let depth =
    Arg.(
      value
      & opt (some int) None
      & info [ "depth" ] ~docv:"D"
          ~doc:
            "Bounded-exhaustive mode: enumerate all deviations within the \
             first $(docv) choice points instead of random walks.")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Worker domains to explore with. Findings are bit-identical \
             for every $(docv) — parallelism only changes wall-clock \
             time.")
  in
  let chunk =
    Arg.(
      value & opt int 64
      & info [ "chunk" ] ~docv:"RUNS"
          ~doc:
            "Walk indices claimed per worker fetch-and-add in random-walk \
             mode (ignored by --depth mode). Findings are bit-identical \
             for every $(docv); larger chunks only reduce shared-counter \
             traffic. Must be positive.")
  in
  let expect_races =
    Arg.(
      value
      & opt (some bool) None
      & info [ "expect-races" ] ~docv:"BOOL"
          ~doc:
            "Assert the exploration-wide race count after a clean \
             search: $(b,true) fails unless some schedule signalled a \
             race, $(b,false) fails if any did. Collects metrics \
             internally even without $(b,--metrics).")
  in
  Cmd.v (Cmd.info "explore" ~doc ~man)
    Term.(
      ret
        (const run_explore $ spec_term
        $ int_opt "runs" 100 "Schedules to explore (cap, in --depth mode)."
        $ depth $ jobs $ chunk
        $ flag [ "dpor" ]
            "Sleep-set partial-order reduction for $(b,--depth) mode: prune \
             schedules that only reorder provably-independent events of an \
             already-explored schedule. Every pruned schedule has an \
             explored representative with the same violations and races. \
             Requires $(b,--depth); single-domain; pruning disarms itself \
             under $(b,--faults) (fault draws break trace equivalence) and \
             the search then runs unpruned."
        $ string_opt "A,B" "diff-models"
            "Differential mode: explore schedules under backend $(i,A) and \
             replay each explored schedule's decision list under $(i,B), \
             reporting the first schedule whose race verdicts differ — with \
             a replay token per model and the sync edges the weaker model \
             is missing. Exits nonzero on a model-dependent verdict, like an \
             invariant violation."
        $ flag [ "force" ]
            "With $(b,--replay) and $(b,--model): replay the token's \
             decision prefix under the given model even though the token \
             was minted under a different one. The run is a valid run of \
             the new model, but not the run the token describes."
        $ string_opt "TOKEN" "replay"
            "Re-execute a repro token deterministically."
        $ flag [ "no-minimize" ]
            "Skip schedule-prefix minimization of the repro token."
        $ flag [ "metrics" ]
            "Print the metrics-registry snapshot after the exploration \
             (merged across worker domains with --jobs > 1)."
        $ expect_races
        $ string_opt "FILE" "trace-out-violation"
            "On a violation, replay the (minimized) repro token and write \
             its Chrome/Perfetto trace-event JSON timeline to $(docv)."
        $ flag [ "explain" ]
            "On a violation (or with $(b,--replay)), re-execute the repro \
             token with a flight recorder attached and print a causal \
             explanation of every race signal: both conflicting accesses \
             with their clocks, the incomparable clock components, and the \
             most recent sync edge between the two processes. Runs with a \
             violation but no race signal fall back to the detector's \
             per-granule provenance (e.g. the planted RMW-atomicity bug)."
        $ string_opt "FILE" "race-report"
            "Write the explanations of the (minimized) violating run as a \
             JSON document to $(docv). Implies the same deterministic token \
             replay as $(b,--explain)."
        $ verbose_flag "Verbose logging."))

let main =
  let doc =
    "Coherent distributed memory with race-condition detection (Butelle & \
     Coti, IPPS 2011)"
  in
  Cmd.group
    (Cmd.info "dsmcheck" ~version:"1.0.0" ~doc)
    [ list_cmd; experiment_cmd; workload_cmd; scale_cmd; run_cmd; explore_cmd ]

let () = exit (Cmd.eval main)
