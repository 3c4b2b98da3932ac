(* dsmcheck: command-line driver for the DSM race-detection reproduction.

   Subcommands:
     dsmcheck list                      list the paper experiments
     dsmcheck experiment E5             replay one experiment (or "all")
     dsmcheck workload random ...       run a workload under the detector
     dsmcheck scale ...                 the neighbour-push scaling run
     dsmcheck run FILE | --scenario F   a .dsm program or a figure's run
     dsmcheck explore SCENARIO ...      search schedules and faults
*)

open Cmdliner
module Machine = Dsm_rdma.Machine
module Detector = Dsm_core.Detector
module Config = Dsm_core.Config
module Report = Dsm_core.Report
module Env = Dsm_pgas.Env
module Collectives = Dsm_pgas.Collectives

let setup_logs verbose =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some (if verbose then Logs.Debug else Logs.Warning))

(* ---------- observability plumbing ---------- *)

let read_file path = In_channel.with_open_text path In_channel.input_all

let ( let* ) = Result.bind

let cli_result = function Ok () -> `Ok () | Error msg -> `Error (false, msg)

(* The one place dsmcheck writes an output file: an unwritable path is a
   clean error naming it (exit 124), never an uncaught exception. *)
let write_output path contents =
  try Ok (Out_channel.with_open_text path (Fun.flip output_string contents))
  with Sys_error msg -> Error msg

(* An optional output file: when [path] is set, write [contents ()] there
   and print the [label] line naming it. *)
let write_optional ~label path contents =
  match path with
  | None -> Ok ()
  | Some path ->
      let* () = write_output path (contents ()) in
      Format.printf "%-15s: %s@." label path;
      Ok ()

(* Write the accumulated timeline, then re-validate the bytes on disk
   against the trace-event schema so a bad export fails here instead of
   inside Perfetto. *)
let write_trace timeline path =
  let* () = write_output path (Dsm_obs.Timeline.to_json_string timeline) in
  match Dsm_obs.Trace_json.validate_trace (read_file path) with
  | Ok s ->
      Format.printf
        "trace out      : %s (%d events: %d slices, %d instants, %d flow \
         pairs, %d lanes)@."
        path s.Dsm_obs.Trace_json.events s.slices s.instants s.flows s.lanes;
      Ok ()
  | Error msg ->
      Error (Printf.sprintf "%s: exporter wrote invalid trace JSON: %s" path msg)

let print_metrics = function
  | None -> ()
  | Some registry ->
      Format.printf "@[<v 2>metrics        :@,%a@]@." Dsm_obs.Metrics.pp
        (Dsm_obs.Metrics.snapshot registry)

(* ---------- one-shot runs ----------

   [workload], [scale], [run FILE] and [run --scenario] each make one
   run and share one path for it: [observe] attaches the probe sinks,
   [run_machine] runs the machine, [detection_summary] prints the
   detector's verdict, and [finish] writes what the run was asked to
   leave behind. The commands keep only the lines that are theirs. *)

type metrics_out = No_metrics | Print_metrics | Metrics_file of string

(* What a command asks a run to leave behind, besides its own lines. *)
type outputs = {
  verbose : bool;
  explain : bool;  (* print an explanation of every race signal *)
  race_report : string option;  (* the explanations as a JSON file *)
  trace_out : string option;  (* a Perfetto timeline of the run *)
  metrics : metrics_out;
}

let no_outputs =
  {
    verbose = false;
    explain = false;
    race_report = None;
    trace_out = None;
    metrics = No_metrics;
  }

type sinks = {
  timeline : Dsm_obs.Timeline.t option;
  registry : Dsm_obs.Metrics.t option;
  flight : Dsm_obs.Flight.t option;
}

(* Attach the sinks [o] needs. Runs before the machine is populated, so
   they observe the run end to end; every sink is a passive observer, so
   attaching one never changes the run. *)
let observe sim o =
  let probe = Dsm_sim.Engine.probe sim in
  let timeline =
    Option.map (fun _ -> Dsm_obs.Timeline.attach probe) o.trace_out
  in
  let registry =
    if o.metrics = No_metrics then None
    else begin
      let r = Dsm_obs.Metrics.create () in
      ignore (Dsm_obs.Meter.attach r probe);
      Some r
    end
  in
  let flight =
    if o.explain || o.race_report <> None then
      Some (Dsm_obs.Flight.attach probe)
    else None
  in
  { timeline; registry; flight }

(* [run FILE] exits with this code when the program itself faults at run
   time (bad index, division by zero, negative compute): the program is
   wrong, not the command line (124) nor dsmcheck (125). *)
let exit_program_fault = 3

(* Run the machine to its end and return the wall-clock seconds it took.
   A run that stops early still reports what it saw; a program fault
   names [name] (the source file) and exits [exit_program_fault]. *)
let run_machine ~name machine =
  let t0 = Unix.gettimeofday () in
  (match Machine.run machine with
  | Dsm_sim.Engine.Completed -> ()
  | _ -> prerr_endline "warning: simulation did not complete"
  | exception
      Dsm_sim.Engine.Process_failure (proc, Dsm_lang.Exec.Runtime_error msg)
    ->
      Printf.eprintf "dsmcheck: %s: process %s: %s\n%!" name proc msg;
      exit exit_program_fault);
  Unix.gettimeofday () -. t0

(* A run that allocates more than a segment holds asked for too many
   processes: bad input (exit 124), not a dsmcheck bug. *)
let segment_full ~n ~capacity ~used ~want =
  Printf.sprintf
    "-n %d does not fit: a %d-word segment is full (%d words used, %d more \
     wanted); use a smaller -n"
    n capacity used want

(* A finished run, as the command's own report lines see it. *)
type ran = { machine : Machine.t; detector : Detector.t option; wall : float }

let print_sim_time r =
  Format.printf "simulated time : %.2f us@."
    (Dsm_sim.Engine.now (Machine.sim r.machine))

let print_messages r =
  Format.printf "messages       : %d (%d words)@."
    (Machine.fabric_messages r.machine)
    (Machine.fabric_words r.machine)

(* The detector's verdict: the checked-op count (unless [ops] is false)
   and the race signals grouped per datum. With no detector, [off] says
   so. *)
let detection_summary ?(off = false) ?(ops = true) r =
  match r.detector with
  | None -> if off then Format.printf "detection      : off@."
  | Some d ->
      if ops then
        Format.printf "checked ops    : %d@." (Detector.checked_ops d);
      Format.printf "@[<v>%a@]@." Report.pp_grouped (Detector.report d)

(* Explain every race signal from the flight-recorder window and each
   granule's provenance (the recorder is attached exactly when [--explain]
   or [--race-report] asks for it), write the race report, then the
   metrics and the timeline. *)
let finish o sinks detector =
  let* () =
    match sinks.flight with
    | None -> Ok ()
    | Some flight ->
        let explanations =
          match detector with
          | None -> []
          | Some d ->
              Dsm_core.Diagnose.explain_report
                ~window:(Dsm_obs.Flight.events flight) (Detector.report d)
        in
        if o.explain then begin
          if explanations = [] then
            Format.printf "explain        : no race signal to explain@."
          else
            List.iter
              (fun e -> print_string (Dsm_obs.Explain.to_text e))
              explanations
        end;
        write_optional ~label:"race report" o.race_report (fun () ->
            Dsm_obs.Explain.list_to_json explanations)
  in
  let* () =
    match (o.metrics, sinks.registry) with
    | Print_metrics, registry ->
        print_metrics registry;
        Ok ()
    | Metrics_file path, Some r ->
        write_optional ~label:"metrics" (Some path) (fun () ->
            Dsm_obs.Metrics.to_json_string (Dsm_obs.Metrics.snapshot r))
    | _ -> Ok ()
  in
  match (sinks.timeline, o.trace_out) with
  | Some tl, Some path -> write_trace tl path
  | _ -> Ok ()

(* The one path of a one-shot run. [setup] builds and populates the
   machine on the observed engine and returns it with the detector whose
   verdict to report and whatever [report] needs to print the command's
   lines. [n] below [min_n] and a segment too small for [n] processes are
   bad input. *)
let one_shot ?seed ~name ~n ~min_n o ~setup ~report =
  setup_logs o.verbose;
  cli_result
    (if n < min_n then
       Error
         (Printf.sprintf "need at least %d process%s" min_n
            (if min_n = 1 then "" else "es"))
     else
       let sim = Dsm_sim.Engine.create ?seed () in
       let sinks = observe sim o in
       let* machine, detector, state =
         try setup sim
         with Dsm_memory.Allocator.Exhausted { capacity; used; want } ->
           Error (segment_full ~n ~capacity ~used ~want)
       in
       let wall = run_machine ~name machine in
       let* () = report { machine; detector; wall } state in
       finish o sinks detector)

let env_of machine = function
  | Some d -> Env.checked d
  | None -> Env.plain machine

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

type which = Random | Master_worker | Stencil | Pipeline | Locked_counter

let which_conv =
  Arg.enum
    [
      ("random", Random);
      ("master-worker", Master_worker);
      ("stencil", Stencil);
      ("pipeline", Pipeline);
      ("locked-counter", Locked_counter);
    ]

(* Smallest [--ops] each workload accepts: random accesses and stencil
   iterations may be zero, tasks, batches and increments may not. *)
let min_ops = function
  | Random | Stencil -> 0
  | Master_worker | Pipeline | Locked_counter -> 1

let run_workload which n seed ops racy detect coherence verbose explain
    dot_file csv_file report_csv =
  if ops < min_ops which then
    `Error
      ( false,
        Printf.sprintf "--ops must be at least %d for this workload"
          (min_ops which) )
  else
    one_shot ~seed ~name:"workload" ~n ~min_n:2
      { no_outputs with verbose; explain }
      ~setup:(fun sim ->
        let* () = Collectives.check_n n in
        let machine = Machine.create sim ~n () in
        let checker =
          if coherence then Some (Dsm_rdma.Coherence.attach machine) else None
        in
        let config =
          {
            Config.default with
            Config.record_trace = dot_file <> None || csv_file <> None;
            granularity = Config.Word;
          }
        in
        let detector =
          if detect then Some (Detector.create machine ~config ~verbose ())
          else None
        in
        let env = env_of machine detector in
        let collectives = Collectives.create env in
        (match which with
        | Random ->
            Dsm_workload.Random_access.setup env ~collectives
              { Dsm_workload.Random_access.default with
                ops_per_proc = ops; seed }
        | Master_worker ->
            Dsm_workload.Master_worker.setup env ~collectives
              { Dsm_workload.Master_worker.default with
                tasks_per_worker = ops; racy; seed }
        | Stencil ->
            ignore
              (Dsm_workload.Stencil.setup env ~collectives
                 { Dsm_workload.Stencil.default with iterations = ops; seed })
        | Pipeline ->
            Dsm_workload.Pipeline.setup env
              { Dsm_workload.Pipeline.default with batches = ops; seed }
        | Locked_counter ->
            Dsm_workload.Locked_counter.setup env
              { Dsm_workload.Locked_counter.default with
                increments_per_proc = ops; seed });
        Ok (machine, detector, checker))
      ~report:(fun r checker ->
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
          checker;
        print_messages r;
        detection_summary ~off:true r;
        match r.detector with
        | None -> Ok ()
        | Some d -> (
            let* () =
              write_optional ~label:"signals csv" report_csv (fun () ->
                  Report.to_csv (Detector.report d))
            in
            if verbose then
              Format.printf "@[<v>%a@]@." Report.pp_summary (Detector.report d);
            match Detector.trace d with
            | None -> Ok ()
            | Some trace ->
                Format.printf "trace          : %a@."
                  Dsm_trace.Export.pp_summary
                  (Dsm_trace.Export.summary trace);
                let* () =
                  write_optional ~label:"trace graph" dot_file (fun () ->
                      Dsm_trace.Trace.to_dot trace)
                in
                write_optional ~label:"trace csv" csv_file (fun () ->
                    Dsm_trace.Export.to_csv trace)))

let workload_cmd =
  let doc = "Run a workload on the simulated DSM machine." in
  let which =
    Arg.(
      required
      & pos 0 (some which_conv) None
      & info [] ~docv:"WORKLOAD"
          ~doc:
            "random, master-worker, stencil, pipeline, or locked-counter.")
  in
  let n =
    Arg.(value & opt int 4 & info [ "n" ] ~docv:"N" ~doc:"Process count.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Random seed.") in
  let ops =
    Arg.(
      value & opt int 20
      & info [ "ops" ] ~doc:"Ops per process / tasks / iterations.")
  in
  let racy =
    Arg.(value & flag & info [ "racy" ] ~doc:"Racy master-worker variant.")
  in
  let detect =
    Arg.(
      value & opt bool true
      & info [ "detect" ] ~doc:"Enable the race detector.")
  in
  let coherence =
    Arg.(
      value & flag
      & info [ "coherence" ] ~doc:"Attach the memory-coherence checker.")
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print signals live.")
  in
  let explain =
    Arg.(
      value & flag
      & info [ "explain" ]
          ~doc:
            "Explain every race signal as $(b,run --explain) does: both \
             conflicting accesses with their clocks, the incomparable \
             components, and the last sync edge between the two processes \
             in the flight-recorder window.")
  in
  let dot =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-dot" ] ~docv:"FILE" ~doc:"Write the HB graph as DOT.")
  in
  let csv =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-csv" ] ~docv:"FILE" ~doc:"Write the event trace as CSV.")
  in
  let report_csv =
    Arg.(
      value
      & opt (some string) None
      & info [ "signals-csv" ] ~docv:"FILE"
          ~doc:"Write the race signals as CSV.")
  in
  Cmd.v (Cmd.info "workload" ~doc)
    Term.(
      ret
        (const run_workload $ which $ n $ seed $ ops $ racy $ detect
       $ coherence $ verbose $ explain $ dot $ csv $ report_csv))

(* ---------- scale ---------- *)

module Model = Dsm_rdma.Model

let model_conv =
  let parse s =
    match Model.of_name s with Ok m -> Ok m | Error msg -> Error (`Msg msg)
  in
  let print ppf m = Format.pp_print_string ppf (Model.name m) in
  Arg.conv (parse, print)

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

let run_scale n rounds chunk racy batched model seed detect metrics_file
    verbose =
  let model = Option.value model ~default:Model.default in
  if rounds < 1 then
    `Error (false, "--rounds must be a positive number of pushes")
  else if chunk < 1 then
    `Error (false, "--chunk must be a positive number of slots")
  else
    let metrics =
      match metrics_file with
      | Some path -> Metrics_file path
      | None -> No_metrics
    in
    one_shot ~seed ~name:"scale" ~n ~min_n:(if racy then 3 else 2)
      { no_outputs with verbose; metrics }
      ~setup:(fun sim ->
        (* tiny segments: at n = 1024 the default 4096-word segments would
           cost tens of megabytes per run for buffers of a few words *)
        let words = max 64 chunk in
        let machine =
          Machine.create sim ~n ~private_words:words ~public_words:words
            ~model ()
        in
        let config = { Config.default with Config.granularity = Config.Word } in
        let detector =
          if detect then Some (Detector.create machine ~config ()) else None
        in
        Dsm_workload.Scale.setup (env_of machine detector)
          { Dsm_workload.Scale.rounds; chunk; racy; batched; think_mean = 0.0;
            seed };
        Ok (machine, detector, ()))
      ~report:(fun r () ->
        Format.printf "processes      : %d%s@." n
          (if batched then " (batched coherence)" else "");
        print_sim_time r;
        print_messages r;
        (match r.detector with
        | None -> Format.printf "detection      : off@."
        | Some d ->
            let ops = Detector.checked_ops d in
            Format.printf "checked ops    : %d (%.0f ops/s wall)@." ops
              (if r.wall > 0. then float_of_int ops /. r.wall else 0.);
            Format.printf "race signals   : %d@."
              (Report.count (Detector.report d));
            Format.printf "clock storage  : %d words, %d compact clock(s)@."
              (Detector.storage_words d) (Detector.epoch_clocks d);
            let dense, sparse, delta = Machine.clock_encodings r.machine in
            Format.printf
              "clock traffic  : %d piggybacked words (%d dense, %d sparse, \
               %d delta frames)@."
              (Detector.clock_words_shipped d)
              dense sparse delta);
        Ok ())

let scale_cmd =
  let doc =
    "Run the neighbour-push scaling workload: sparse clocks and batched \
     coherence at process counts far past the paper's ~10."
  in
  let n =
    Arg.(value & opt int 64 & info [ "n" ] ~docv:"N" ~doc:"Process count.")
  in
  let rounds =
    Arg.(value & opt int 2 & info [ "rounds" ] ~doc:"Pushes per process.")
  in
  let chunk =
    Arg.(
      value & opt int 4
      & info [ "chunk" ] ~doc:"Contiguous slots per push (batch size).")
  in
  let racy =
    Arg.(
      value & flag
      & info [ "racy" ]
          ~doc:"Both ring neighbours write each buffer (every slot races).")
  in
  let batched =
    Arg.(
      value & opt bool true
      & info [ "batched" ]
          ~doc:"Coalesce each push into one fabric message.")
  in
  let model = model_arg ~extra_doc:"" in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Engine seed.") in
  let detect =
    Arg.(
      value & opt bool true
      & info [ "detect" ] ~doc:"Enable the race detector.")
  in
  let metrics_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:
            "Attach the metrics registry to the run and write its JSON \
             snapshot to $(docv) after completion.")
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Verbose logging.")
  in
  Cmd.v (Cmd.info "scale" ~doc)
    Term.(
      ret
        (const run_scale $ n $ rounds $ chunk $ racy $ batched $ model
       $ seed $ detect $ metrics_file $ verbose))

(* ---------- run (mini-language programs) ---------- *)

let run_source path o ~n ~model ~instrument ~detect =
  match Dsm_lang.Parser.parse (read_file path) with
  | Error msg -> `Error (false, Printf.sprintf "%s: %s" path msg)
  | Ok prog -> (
      match Dsm_lang.Compile.lower ~instrument prog with
      | Error msg -> `Error (false, msg)
      | Ok ir ->
          one_shot ~name:path ~n ~min_n:1 o
            ~setup:(fun sim ->
              let* () = Collectives.check_n n in
              let machine = Machine.create sim ~n ~model () in
              let detector =
                if detect then
                  Some (Detector.create machine ~verbose:o.verbose ())
                else None
              in
              let* () = Dsm_lang.Exec.check_fit machine ir in
              let rt = Dsm_lang.Exec.setup machine ?detector ir in
              Ok (machine, detector, rt))
            ~report:(fun r rt ->
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
                prog.Dsm_lang.Ast.shared;
              detection_summary ~ops:false r;
              Ok ()))

let run_figure name o ~n ~model ~detect =
  one_shot ~name ~n ~min_n:1 o
    ~setup:(fun sim ->
      let n = max n Dsm_experiments.Figures.figure_min_nodes in
      let machine = Machine.create sim ~n ~model () in
      let* detector = Dsm_experiments.Figures.build_figure name machine in
      Ok (machine, (if detect then detector else None), n))
    ~report:(fun r n ->
      Format.printf "scenario       : %s (%d processes)@." name n;
      print_sim_time r;
      print_messages r;
      detection_summary r;
      Ok ())

let run_program path scenario n model instrument detect verbose trace_out
    metrics explain race_report =
  let model = Option.value model ~default:Model.default in
  let o =
    {
      verbose;
      explain;
      race_report;
      trace_out;
      metrics = (if metrics then Print_metrics else No_metrics);
    }
  in
  match (path, scenario) with
  | None, None -> `Error (true, "either FILE or --scenario NAME is required")
  | Some _, Some _ -> `Error (true, "FILE and --scenario are mutually exclusive")
  | None, Some name -> run_figure name o ~n ~model ~detect
  | Some path, None -> run_source path o ~n ~model ~instrument ~detect

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
    Arg.(
      value
      & opt (some string) None
      & info [ "scenario" ] ~docv:"NAME"
          ~doc:
            (Printf.sprintf
               "Run a figure scenario instead of a program file: %s."
               (String.concat ", " Dsm_experiments.Figures.figure_names)))
  in
  let n =
    Arg.(value & opt int 4 & info [ "n" ] ~docv:"N" ~doc:"Process count.")
  in
  let model = model_arg ~extra_doc:"" in
  let instrument =
    Arg.(
      value & opt bool true
      & info [ "instrument" ]
          ~doc:"Let the pre-compiler insert detection wrappers (§5.2).")
  in
  let detect =
    Arg.(
      value & opt bool true
      & info [ "detect" ] ~doc:"Attach the race detector.")
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print signals live.")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Write a Chrome/Perfetto trace-event JSON timeline of the run \
             (load it at ui.perfetto.dev or chrome://tracing).")
  in
  let metrics =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:"Print the metrics-registry snapshot after the run.")
  in
  let explain =
    Arg.(
      value & flag
      & info [ "explain" ]
          ~doc:
            "Explain every race signal: both conflicting accesses with \
             their clocks, the incomparable components, and the most \
             recent sync edge between the two processes in the \
             flight-recorder window.")
  in
  let race_report =
    Arg.(
      value
      & opt (some string) None
      & info [ "race-report" ] ~docv:"FILE"
          ~doc:"Write the race explanations as a JSON document to $(docv).")
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
        (const run_program $ path $ scenario $ n $ model $ instrument
       $ detect $ verbose $ trace_out $ metrics $ explain $ race_report))

(* ---------- explore ---------- *)

module Explore = Dsm_explore.Explore
module Token = Dsm_explore.Token

let print_violations r =
  List.iter
    (fun v -> Format.printf "violation      : %a@." Explore.pp_violation v)
    r.Explore.violations

(* Replay a token with probe sinks that collect the message arrows and
   race marks of the run, and render them as the paper-style space-time
   diagram, with the same arrow collector the figures use. *)
let replay_with_diagram token =
  let arrows = ref (fun () -> []) in
  let marks = ref [] in
  let probe bus =
    arrows := Dsm_experiments.Harness.collect_arrows bus;
    Dsm_obs.Probe.attach bus (function
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
  match Explore.replay ~probe token with
  | Error _ as e -> e
  | Ok r -> Ok (r, !arrows (), List.rev !marks)
  | exception Dsm_memory.Allocator.Exhausted { capacity; used; want } ->
      Error (segment_full ~n:token.spec.n ~capacity ~used ~want)

(* One deterministic explanation pass over a repro token: flight-recorded
   replay, explanation text/JSON, optional annotated Perfetto timeline.
   Every --explain path (explore finish, --replay) goes through here, so
   the rendered bytes are identical no matter how the token was found. *)
let explain_token ~explain ~race_report ~trace_out_violation token =
  if explain || race_report <> None || trace_out_violation <> None then begin
    let tl =
      match trace_out_violation with
      | Some _ -> Some (Dsm_obs.Timeline.create ())
      | None -> None
    in
    match Dsm_explore.Explain_run.of_token ?timeline:tl token with
    | Error msg ->
        Printf.eprintf "warning: explanation replay failed: %s\n" msg;
        Ok ()
    | Ok o -> (
        if explain then begin
          if o.Dsm_explore.Explain_run.text = "" then
            Format.printf
              "explain        : no race signal and no provenance conflict \
               in this run@."
          else print_string o.Dsm_explore.Explain_run.text
        end;
        let* () =
          write_optional ~label:"race report" race_report (fun () ->
              o.Dsm_explore.Explain_run.json)
        in
        match (tl, trace_out_violation) with
        | Some tl, Some path -> write_trace tl path
        | _ -> Ok ())
  end
  else Ok ()

(* Differential exploration: replay each explored schedule under two
   backends and report the first schedule whose verdicts differ, with a
   replay token per model and the sync edges the weaker model lacks. *)
let run_diff_models spec ~pair ~runs ~depth ~explain ~race_report =
  match String.split_on_char ',' pair with
  | [ a; b ] -> (
      match (Model.of_name (String.trim a), Model.of_name (String.trim b)) with
      | Error msg, _ | _, Error msg -> `Error (false, msg)
      | Ok ma, Ok mb when ma = mb ->
          `Error
            ( false,
              "--diff-models needs two distinct backends (got "
              ^ Model.name ma ^ " twice)" )
      | Ok ma, Ok mb -> (
          match Dsm_explore.Diff.run ?depth ~runs spec (ma, mb) with
          | exception Invalid_argument msg -> `Error (false, msg)
          | exception Sys_error msg -> `Error (false, msg)
          | o ->
              Format.printf
                "schedules      : %d explored under %s, replayed under %s@."
                o.Dsm_explore.Diff.schedules (Model.name ma) (Model.name mb);
              Format.printf
                "differing      : %d (%d flip a race verdict)@."
                o.Dsm_explore.Diff.differing o.Dsm_explore.Diff.race_dependent;
              (match o.Dsm_explore.Diff.first with
              | None ->
                  Format.printf
                    "verdicts       : identical under both models@.";
                  `Ok ()
              | Some f ->
                  Format.printf "races          : %d under %s, %d under %s@."
                    f.Dsm_explore.Diff.races_a (Model.name ma)
                    f.Dsm_explore.Diff.races_b (Model.name mb);
                  Format.printf "repro (%s) : %s@."
                    (Model.name ma)
                    (Token.to_string f.Dsm_explore.Diff.token_a);
                  Format.printf "repro (%s) : %s@."
                    (Model.name mb)
                    (Token.to_string f.Dsm_explore.Diff.token_b);
                  List.iter
                    (fun e -> Format.printf "missing edge   : %s@." e)
                    f.Dsm_explore.Diff.missing_edges;
                  (* Explain the run on the side that signalled races —
                     the explanation names the conflicting accesses the
                     missing edge would have ordered. *)
                  let racy_token =
                    if
                      f.Dsm_explore.Diff.races_b > f.Dsm_explore.Diff.races_a
                    then f.Dsm_explore.Diff.token_b
                    else f.Dsm_explore.Diff.token_a
                  in
                  cli_result
                    (let* () =
                       explain_token ~explain ~race_report
                         ~trace_out_violation:None racy_token
                     in
                     Error
                       "model-dependent verdict (see the per-model repro \
                        tokens)"))))
  | _ ->
      `Error
        ( false,
          "--diff-models takes exactly two comma-separated backends, e.g. \
           nic_atomic,relaxed" )

let run_explore (spec, model) runs depth jobs chunk dpor diff_models force
    replay no_minimize metrics expect_races trace_out_violation explain
    race_report verbose =
  setup_logs verbose;
  (* A scenario that outgrows a segment is bad input, as in [one_shot]. *)
  try
    if runs < 1 then `Error (false, "--runs must be a positive number of runs")
    else if jobs < 1 then
      `Error (false, "--jobs must be a positive number of worker domains")
    else if (match depth with Some d -> d < 0 | None -> false) then
      `Error (false, "--depth must be a non-negative number of choice points")
    else if chunk < 1 then
      `Error (false, "--chunk must be a positive number of runs per claim")
    else if diff_models <> None && replay <> None then
      `Error
        ( false,
          "--diff-models explores fresh schedules; it cannot be combined \
           with --replay (replay one token per model instead)" )
    else if diff_models <> None && dpor then
      `Error
        ( false,
          "--diff-models replays every explored schedule under both \
           backends; --dpor's pruning is justified per model and does not \
           compose — drop one of them" )
    else if diff_models <> None && jobs > 1 then
      `Error
        (false, "--diff-models is a single-domain comparison; drop --jobs")
    else if dpor && replay <> None then
      `Error
        ( false,
          "--dpor cannot be combined with --replay: a token replays exactly \
           one schedule, there is nothing to prune" )
    else if dpor && jobs > 1 then
      `Error
        ( false,
          "--dpor is a single-domain search (its sleep sets are sequential \
           state); drop --jobs or use --jobs 1" )
    else if dpor && depth = None then
      `Error
        ( false,
          "--dpor requires --depth: it prunes the bounded-exhaustive DFS, \
           not random walks" )
    else
    match replay with
    | Some token_str -> (
        match Token.of_string token_str with
        | Error msg -> `Error (false, msg)
        | Ok token when
            (match model with
             | Some m -> m <> token.spec.model && not force
             | None -> false) ->
            (* A token replays the run that minted it, and the run is a
               function of the model — silently replaying under another
               backend would "reproduce" a different run. *)
            let m = Option.get model in
            `Error
              ( false,
                Printf.sprintf
                  "token was minted under --model %s but --model %s was \
                   given; the schedule and verdict are model-dependent. \
                   Pass --force to replay the decision prefix under %s \
                   anyway."
                  (Model.name token.spec.model)
                  (Model.name m) (Model.name m) )
        | Ok token -> (
            let token =
              match model with
              | Some m when force ->
                  { token with spec = { token.spec with model = m } }
              | _ -> token
            in
            match replay_with_diagram token with
            | Error msg -> `Error (false, msg)
            | Ok (r, arrows, marks) ->
                Format.printf "fault plan     : %s@."
                  (Dsm_net.Fault.to_string token.spec.faults);
                Format.printf "@[<v>%a@]@." Explore.pp_result r;
                print_violations r;
                Format.printf "%s@."
                  (Dsm_trace.Spacetime.render ~n:token.spec.n ~arrows ~marks
                     ());
                if r.Explore.violations = [] then
                  Format.printf "replay         : no invariant violated@.";
                cli_result
                  (explain_token ~explain ~race_report
                     ~trace_out_violation:None token)))
    | None -> (
        match diff_models with
        | Some pair ->
            run_diff_models spec ~pair ~runs ~depth ~explain ~race_report
        | None ->
        (* --expect-races needs the merged race counter even when the user
           did not ask for a metrics printout *)
        let registry =
          if metrics || expect_races <> None then
            Some (Dsm_obs.Metrics.create ())
          else None
        in
        let print_metrics r = print_metrics (if metrics then r else None) in
        (* Assert the exploration-wide race count after a clean search;
           invariant violations already exit nonzero on their own. *)
        let check_expected_races ok =
          match (expect_races, registry) with
          | None, _ | _, None -> ok
          | Some want, Some reg ->
              let races =
                Dsm_obs.Metrics.value
                  (Dsm_obs.Metrics.counter reg "detector.race_signal")
              in
              Format.printf "race signals   : %d (expected %s)@." races
                (if want then "some" else "none");
              if want && races = 0 then
                `Error
                  ( false,
                    "expected races, but no schedule signalled one \
                     (detector.race_signal = 0)" )
              else if (not want) && races > 0 then
                `Error
                  ( false,
                    Printf.sprintf
                      "expected a race-free scenario, but \
                       detector.race_signal = %d"
                      races )
              else ok
        in
        let progress =
          if jobs > 1 then begin
            (* Rate-limited stderr heartbeat fed by the shared completion
               counters; the CAS on [last] keeps concurrent workers from
               printing duplicate lines. *)
            let t0 = Unix.gettimeofday () in
            let last = Atomic.make t0 in
            Some
              (fun ~runs ~violated ->
                let now = Unix.gettimeofday () in
                let prev = Atomic.get last in
                if now -. prev >= 1.0 && Atomic.compare_and_set last prev now
                then
                  Printf.eprintf
                    "explore: %d runs, %d violating, %.0f runs/s\n%!"
                    runs violated
                    (float_of_int runs /. (now -. t0)))
          end
          else None
        in
        let finish (first : (Explore.mode * Explore.run_result) option) =
          match first with
          | None ->
              Format.printf "invariants     : all held@.";
              print_metrics registry;
              check_expected_races (`Ok ())
          | Some (_, r) ->
              print_violations r;
              let decisions =
                if no_minimize then
                  Token.trim_trailing_zeros r.Explore.decisions
                else Explore.minimize ?metrics:registry spec r.Explore.decisions
              in
              let token = Token.make spec decisions in
              Format.printf "repro          : %s@." (Token.to_string token);
              (* Re-execute the (minimized) violating run once, with a
                 flight recorder (and a timeline sink when requested) on
                 its replay arena: explanation text/JSON and the exported
                 trace all describe the same deterministic run. *)
              let explained =
                explain_token ~explain ~race_report ~trace_out_violation token
              in
              print_metrics registry;
              cli_result
                (let* () = explained in
                 Error "invariant violated (see repro token)")
        in
        if dpor then (
          (* guarded above: dpor implies depth is set and jobs = 1 *)
          let depth = Option.get depth in
          match
            Dsm_explore.Dpor.explore ?metrics:registry spec ~depth
              ~max_runs:runs
          with
          | exception Invalid_argument msg -> `Error (false, msg)
          | exception Sys_error msg -> `Error (false, msg)
          | st ->
              let explored = st.Dsm_explore.Dpor.runs in
              let pruned = st.Dsm_explore.Dpor.pruned in
              let total = explored + pruned in
              Format.printf
                "schedules      : %d explored, %d pruned (%.1f%% of %d \
                 candidates), %d violating@."
                explored pruned
                (if total = 0 then 0.0
                 else 100.0 *. float_of_int pruned /. float_of_int total)
                total st.Dsm_explore.Dpor.violated;
              finish st.Dsm_explore.Dpor.first)
        else
          (* Parallel.* with a size-1 pool delegates to the sequential
             explorer, and for jobs > 1 its merge is bit-identical to it —
             so one call site covers every --jobs value. *)
          match
            match depth with
            | Some depth ->
                Dsm_explore.Parallel.explore_exhaustive ~jobs ?metrics:registry
                  spec ~depth ~max_runs:runs
            | None ->
                Dsm_explore.Parallel.explore_random ~jobs ~chunk
                  ?metrics:registry ?progress spec ~runs
          with
          | exception Invalid_argument msg -> `Error (false, msg)
          | exception Sys_error msg -> `Error (false, msg)
          | stats ->
              Format.printf "schedules      : %d explored, %d violating@."
                stats.Explore.runs stats.Explore.violated;
              finish stats.Explore.first)
  with Dsm_memory.Allocator.Exhausted { capacity; used; want } ->
    `Error (false, segment_full ~n:spec.Token.n ~capacity ~used ~want)

(* The run spec from its nine flags: the one place the CLI describes a
   run, checked by the same [Token.validate] that guards the codec.
   [--model] stays an option beside the spec, because --replay must tell
   an explicit backend from the default. *)
let spec_term =
  let scenario =
    Arg.(
      value & pos 0 string Token.default_spec.scenario
      & info [] ~docv:"SCENARIO"
          ~doc:"getput, prog:FILE.dsm, or workload:NAME.")
  in
  let n =
    Arg.(
      value & opt int Token.default_spec.n
      & info [ "n" ] ~docv:"N" ~doc:"Process count.")
  in
  let seed =
    Arg.(
      value & opt int Token.default_spec.seed
      & info [ "seed" ] ~doc:"Engine seed.")
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
  let faults =
    Arg.(
      value
      & opt (some string) None
      & info [ "faults" ] ~docv:"PLAN"
          ~doc:
            "Fault plan, e.g. 'drop=0.2,dup=0.1' or '0>1:reorder=0.5' \
             (see the DESIGN notes for the grammar).")
  in
  let reliable =
    Arg.(
      value & flag
      & info [ "reliable" ]
          ~doc:"Enable the retry/ack transport so faults are survivable.")
  in
  let bug =
    Arg.(
      value & flag
      & info [ "bug" ]
          ~doc:
            "Plant the Skip_get_dst_lock protocol bug (for exercising the \
             explorer itself).")
  in
  let max_events =
    Arg.(
      value & opt int Token.default_spec.max_events
      & info [ "max-events" ] ~doc:"Per-run event budget.")
  in
  let make scenario n seed latency model faults reliable bug max_events =
    match Dsm_net.Latency.of_string latency with
    | Error msg -> `Error (false, msg)
    | Ok latency -> (
        match Option.map Dsm_net.Fault.of_string faults with
        | exception Invalid_argument msg -> `Error (false, msg)
        | faults -> (
            let spec =
              {
                Token.scenario;
                n;
                seed;
                latency;
                model = Option.value model ~default:Token.default_spec.model;
                faults = Option.value faults ~default:Token.default_spec.faults;
                reliable;
                bug;
                max_events;
              }
            in
            match Token.validate (Token.make spec []) with
            | Error msg -> `Error (false, msg)
            | Ok _ -> `Ok (spec, model)))
  in
  Term.(
    ret
      (const make $ scenario $ n $ seed $ latency $ model $ faults $ reliable
     $ bug $ max_events))

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
  let runs =
    Arg.(
      value & opt int 100
      & info [ "runs" ] ~doc:"Schedules to explore (cap, in --depth mode).")
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
  let dpor =
    Arg.(
      value & flag
      & info [ "dpor" ]
          ~doc:
            "Sleep-set partial-order reduction for $(b,--depth) mode: \
             prune schedules that only reorder provably-independent \
             events of an already-explored schedule. Every pruned \
             schedule has an explored representative with the same \
             violations and races. Requires $(b,--depth); single-domain; \
             pruning disarms itself under $(b,--faults) (fault draws \
             break trace equivalence) and the search then runs \
             unpruned.")
  in
  let diff_models =
    Arg.(
      value
      & opt (some string) None
      & info [ "diff-models" ] ~docv:"A,B"
          ~doc:
            "Differential mode: explore schedules under backend $(i,A) \
             and replay each explored schedule's decision list under \
             $(i,B), reporting the first schedule whose race verdicts \
             differ — with a replay token per model and the sync edges \
             the weaker model is missing. Exits nonzero on a \
             model-dependent verdict, like an invariant violation.")
  in
  let force =
    Arg.(
      value & flag
      & info [ "force" ]
          ~doc:
            "With $(b,--replay) and $(b,--model): replay the token's \
             decision prefix under the given model even though the token \
             was minted under a different one. The run is a valid run of \
             the new model, but not the run the token describes.")
  in
  let replay =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"TOKEN"
          ~doc:"Re-execute a repro token deterministically.")
  in
  let no_minimize =
    Arg.(
      value & flag
      & info [ "no-minimize" ]
          ~doc:"Skip schedule-prefix minimization of the repro token.")
  in
  let metrics =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:
            "Print the metrics-registry snapshot after the exploration \
             (merged across worker domains with --jobs > 1).")
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
  let trace_out_violation =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out-violation" ] ~docv:"FILE"
          ~doc:
            "On a violation, replay the (minimized) repro token and write \
             its Chrome/Perfetto trace-event JSON timeline to $(docv).")
  in
  let explain =
    Arg.(
      value & flag
      & info [ "explain" ]
          ~doc:
            "On a violation (or with $(b,--replay)), re-execute the repro \
             token with a flight recorder attached and print a causal \
             explanation of every race signal: both conflicting accesses \
             with their clocks, the incomparable clock components, and \
             the most recent sync edge between the two processes. Runs \
             with a violation but no race signal fall back to the \
             detector's per-granule provenance (e.g. the planted \
             RMW-atomicity bug).")
  in
  let race_report =
    Arg.(
      value
      & opt (some string) None
      & info [ "race-report" ] ~docv:"FILE"
          ~doc:
            "Write the explanations of the (minimized) violating run as a \
             JSON document to $(docv). Implies the same deterministic \
             token replay as $(b,--explain).")
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Verbose logging.")
  in
  Cmd.v (Cmd.info "explore" ~doc ~man)
    Term.(
      ret
        (const run_explore $ spec_term $ runs $ depth $ jobs $ chunk $ dpor
       $ diff_models $ force $ replay $ no_minimize $ metrics $ expect_races
       $ trace_out_violation $ explain $ race_report $ verbose))

let main =
  let doc =
    "Coherent distributed memory with race-condition detection (Butelle & \
     Coti, IPPS 2011)"
  in
  Cmd.group
    (Cmd.info "dsmcheck" ~version:"1.0.0" ~doc)
    [
      list_cmd;
      experiment_cmd;
      workload_cmd;
      scale_cmd;
      run_cmd;
      explore_cmd;
    ]

let () = exit (Cmd.eval main)
