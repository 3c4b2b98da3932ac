(* dsmbench: the end-to-end benchmark of dsmcheck. See README.md.

     dsmbench [--seed S] [--json FILE]      4 rounds x 10 samples per workload
     dsmbench --trace FILE [--workload W]   traced run: ladder + per-layer table
     dsmbench --compare BASE NEW            regression gate
     dsmbench --smoke                       1 sample per workload + self-tests
     dsmbench --workload W [--samples K | --seconds T] [--bench-line]
                                            one workload in this process *)

module W = Work

let rounds = 4
let samples_per_round = 10
let now = Span.now

let nproc () =
  match Unix.open_process_args_in "nproc" [| "nproc" |] with
  | exception Unix.Unix_error _ -> -1
  | ic -> (
      let line = In_channel.input_line ic in
      match (Unix.close_process_in ic, line) with
      | Unix.WEXITED 0, Some l ->
          Option.value (int_of_string_opt (String.trim l)) ~default:(-1)
      | _ -> -1)

(* The run spec every output carries. *)
let stamp ~mode ~seed ~samples =
  Json.obj
    [
      ("tool", Json.str "dsmbench");
      ("mode", Json.str mode);
      ("seed", Json.int seed);
      ("samples_per_workload", Json.str samples);
      ( "sizes",
        Json.obj (List.map (fun w -> (W.name w, Json.str (W.sizes w))) W.all) );
      ("ocaml", Json.str Sys.ocaml_version);
      ("nproc", Json.int (nproc ()));
      ("recommended_domain_count", Json.int (Domain.recommended_domain_count ()));
      ("domains_used", Json.int 1);
    ]

(* {1 One process's measurement of one workload} *)

type round = {
  samples : (string * float list) list;
  scalars : (string * float) list;
  attempted : int;
  failed : int;
  failures : string list;
}

let round_of_measured (m : W.measured) =
  {
    samples = m.samples;
    scalars =
      [
        ("peak_heap_mb", m.peak_heap_mb);
        ("sim_overhead_x", m.facts.sim_overhead_x);
        ("msgs_per_op", m.facts.msgs_per_op);
        ("clock_words_per_op", m.facts.clock_words_per_op);
        ("races", float m.facts.races);
      ];
    attempted = m.checks.attempted;
    failed = m.checks.failed;
    failures = m.checks.failures;
  }

let round_to_json r =
  Json.obj
    [
      ( "samples",
        Json.obj
          (List.map (fun (k, xs) -> (k, Json.arr (List.map Json.num xs))) r.samples)
      );
      ("scalars", Json.obj (List.map (fun (k, v) -> (k, Json.num v)) r.scalars));
      ("attempted", Json.int r.attempted);
      ("failed", Json.int r.failed);
      ("failures", Json.arr (List.map Json.str r.failures));
    ]

let round_of_json j =
  let assoc k f = List.map (fun (k, v) -> (k, f v)) (Json.to_assoc (Json.field k j)) in
  {
    samples = assoc "samples" (fun v -> List.map Json.to_num (Json.to_list v));
    scalars = assoc "scalars" Json.to_num;
    attempted = int_of_float (Json.to_num (Json.field "attempted" j));
    failed = int_of_float (Json.to_num (Json.field "failed" j));
    failures = List.map Json.to_str (Json.to_list (Json.field "failures" j));
  }

type result = {
  workload : W.t;
  metrics : (string * Stats.t) list;
  attempted : int;
  failed : int;
  failures : string list;
}

(* Pools the rounds of one workload. Simulated metrics must agree
   between rounds; iter_s_p75's quartiles are those of the per-round
   p75s. *)
let summarize w (rounds : round list) =
  let c = W.Checks.create () in
  let samples k =
    List.concat_map
      (fun r -> Option.value (List.assoc_opt k r.samples) ~default:[])
      rounds
  in
  let scalar k = List.map (fun r -> List.assoc k r.scalars) rounds in
  let exact k =
    let vs = scalar k in
    let v = List.hd vs in
    W.Checks.expect c (List.for_all (Float.equal v) vs) (fun () ->
        Printf.sprintf "%s: %s differs between rounds" (W.name w) k);
    Stats.exact ~n:(List.length vs) v
  in
  let iter = samples "iter_s" in
  let p75 =
    {
      (Stats.of_list
         (List.map (fun r -> Stats.pct (List.assoc "iter_s" r.samples) 75.) rounds))
      with
      median = Stats.pct iter 75.;
      n = List.length iter;
    }
  in
  let measured =
    [ ("iter_s_p75", p75); ("peak_heap_mb", Stats.of_list (scalar "peak_heap_mb")) ]
    @ List.map
        (fun k -> (k, exact k))
        [ "sim_overhead_x"; "msgs_per_op"; "clock_words_per_op"; "races" ]
  in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 rounds in
  let attempted = sum (fun (r : round) -> r.attempted) + c.attempted in
  let failed = sum (fun (r : round) -> r.failed) + c.failed in
  let fail_frac = Stats.exact ~n:attempted (float failed /. float (max 1 attempted)) in
  let metrics =
    List.filter_map
      (fun (m : Metric.t) ->
        if String.equal m.name "fail_frac" then Some (m.name, fail_frac)
        else
          match List.assoc_opt m.name measured with
          | Some s -> Some (m.name, s)
          | None -> (
              match samples m.name with
              | [] -> None
              | xs -> Some (m.name, Stats.of_list xs)))
      Metric.end_to_end
  in
  {
    workload = w;
    metrics;
    attempted;
    failed;
    failures = List.concat_map (fun (r : round) -> r.failures) rounds @ c.failures;
  }

let print_metrics rows =
  Printf.printf "  %-28s %-9s %14s %14s %14s %6s\n" "metric" "unit" "median"
    "p25" "p75" "n";
  List.iter
    (fun (name, (s : Stats.t)) ->
      Printf.printf "  %-28s %-9s %14.6g %14.6g %14.6g %6d\n" name
        (Metric.unit_of name) s.median s.p25 s.p75 s.n)
    rows

let print_result r =
  Printf.printf "\n== %s: %s\n   %s\n   checks %d, failed %d\n" (W.name r.workload)
    (W.why r.workload) (W.sizes r.workload) r.attempted r.failed;
  List.iter (Printf.printf "   FAILED %s\n") r.failures;
  print_metrics r.metrics

let result_json ~spec results =
  Json.obj
    [
      ("schema", Json.str "dsmbench/1");
      ("spec", spec);
      ( "workloads",
        Json.arr
          (List.map
             (fun r ->
               Json.obj
                 [
                   ("name", Json.str (W.name r.workload));
                   ("why", Json.str (W.why r.workload));
                   ("sizes", Json.str (W.sizes r.workload));
                   ("checks", Json.int r.attempted);
                   ("failed", Json.int r.failed);
                   ("failures", Json.arr (List.map Json.str r.failures));
                   ( "metrics",
                     Json.obj
                       (List.map
                          (fun (k, s) -> (k, Stats.to_json ~unit_:(Metric.unit_of k) s))
                          r.metrics) );
                 ])
             results) );
    ]

(* The result line of the BENCHMARK.json command: the metrics
   BENCHMARK.json lists under [section], each as its median. *)
let bench_line ~section values ~attempted ~failed =
  let spec = Json.parse (Json.read_file "BENCHMARK.json") in
  let metric e =
    let name = Json.to_str (Json.field "name" e) in
    match List.assoc_opt name values with
    | Some (s : Stats.t) ->
        ( name,
          Json.obj
            [ ("value", Json.num s.median);
              ("unit", Json.str (Json.to_str (Json.field "unit" e))) ] )
    | None -> failwith ("dsmbench: no value for benchmark metric " ^ name)
  in
  print_endline
    (Json.obj
       [
         ("correct", Json.bool (failed = 0));
         ("attempted", Json.int attempted);
         ("failed", Json.int failed);
         ( "metrics",
           Json.obj (List.map metric (Json.to_list (Json.field section spec))) );
       ])

(* {1 Modes} *)

let one_workload w ~seed ~budget ~line =
  let m = W.measure w ~seed ~budget in
  let r = round_of_measured m in
  if line then begin
    let res = summarize w [ r ] in
    print_result res;
    Printf.printf "  host times at the reference speed: median factor %.4f\n"
      (Stats.pct m.factors 50.);
    bench_line ~section:"end_to_end" res.metrics ~attempted:res.attempted
      ~failed:res.failed
  end
  else print_endline (round_to_json r);
  0

let run_child args =
  let exe = Sys.executable_name in
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let lines = In_channel.input_lines ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 when lines <> [] ->
      round_of_json (Json.parse (List.nth lines (List.length lines - 1)))
  | _ -> failwith ("dsmbench: child failed: " ^ String.concat " " args)

(* Rounds are fresh child processes taken round-robin across workloads,
   so a slow window of the host spreads over every workload. *)
let full ~seed ~json =
  let t0 = now () in
  let per = Hashtbl.create 4 in
  for round = 1 to rounds do
    List.iter
      (fun w ->
        Printf.eprintf "[dsmbench] round %d/%d %s\n%!" round rounds (W.name w);
        let r =
          run_child
            [ "--workload"; W.name w; "--seed"; string_of_int seed; "--samples";
              string_of_int samples_per_round ]
        in
        Hashtbl.replace per w (r :: Option.value (Hashtbl.find_opt per w) ~default:[]))
      W.all
  done;
  let results = List.map (fun w -> summarize w (List.rev (Hashtbl.find per w))) W.all in
  let spec =
    stamp ~mode:"untraced" ~seed
      ~samples:
        (Printf.sprintf "%d (%d rounds x %d)" (rounds * samples_per_round)
           rounds samples_per_round)
  in
  Printf.printf "dsmbench seed %d: %s\n" seed spec;
  List.iter print_result results;
  Option.iter (fun path -> Json.write_file path (result_json ~spec results ^ "\n")) json;
  Printf.printf "\ntotal wall %.1f s\n" (now () -. t0);
  if List.exists (fun r -> r.failed > 0) results then 1 else 0

let traced ~seed ~workloads ~budget ~file ~line =
  let tr = Span.create () in
  let results =
    List.map
      (fun w ->
        Printf.eprintf "[dsmbench] traced %s\n%!" (W.name w);
        Layers.run tr w ~seed ~budget)
      workloads
  in
  let spec =
    stamp ~mode:"traced" ~seed
      ~samples:
        (match budget with
        | W.Samples k -> Printf.sprintf "%d ladder rounds" k
        | Seconds s -> Printf.sprintf "ladder rounds for %g s" s)
  in
  let facts (f : W.facts) =
    [
      ("sim_overhead_x", Stats.exact f.sim_overhead_x);
      ("msgs_per_op", Stats.exact f.msgs_per_op);
      ("clock_words_per_op", Stats.exact f.clock_words_per_op);
      ("races", Stats.exact (float f.races));
    ]
  in
  List.iter
    (fun (r : Layers.result) ->
      Printf.printf "\n== %s (traced): checks %d, failed %d\n" (W.name r.workload)
        r.checks.attempted r.checks.failed;
      List.iter (Printf.printf "   FAILED %s\n") r.checks.failures;
      print_metrics ((("iter_s (traced)", r.traced_iter_s) :: facts r.facts) @ r.layers);
      Printf.printf "  span self time (ms, calls):\n";
      List.iter
        (fun (name, (self, calls)) ->
          Printf.printf "    %-28s %12.3f %6d\n" name (self *. 1e3) calls)
        (Span.self_times tr ~tid:(Layers.tid r.workload)))
    results;
  let metadata =
    Json.obj
      [
        ("spec", spec);
        ( "workloads",
          Json.obj
            (List.map
               (fun (r : Layers.result) ->
                 let json (k, s) = (k, Stats.to_json ~unit_:(Metric.unit_of k) s) in
                 ( W.name r.workload,
                   Json.obj
                     ([ ("checks", Json.int r.checks.attempted);
                        ("failed", Json.int r.checks.failed);
                        json ("iter_s", r.traced_iter_s) ]
                     @ List.map json (facts r.facts)
                     @ List.map json r.layers) ))
               results) );
      ]
  in
  let text =
    Span.to_chrome tr
      ~lanes:(List.map (fun w -> (Layers.tid w, W.name w)) workloads)
      ~metadata
  in
  Json.write_file file (text ^ "\n");
  (* the written trace is one more checked output *)
  let trace_ok =
    match Json.validate_trace text with
    | Ok s ->
        Printf.printf "\ntrace: %s (%d spans)\n" file s.slices;
        true
    | Error e ->
        Printf.printf "\nFAILED trace %s: %s\n" file e;
        false
  in
  let sum f = List.fold_left (fun a r -> a + f r) 0 results in
  let attempted = 1 + sum (fun (r : Layers.result) -> r.checks.attempted) in
  let failed =
    Bool.to_int (not trace_ok) + sum (fun (r : Layers.result) -> r.checks.failed)
  in
  (match (line, results) with
  | true, [ r ] -> bench_line ~section:"per_layer" r.layers ~attempted ~failed
  | _ -> ());
  (* with --bench-line the verdict travels in the line's "correct" *)
  if failed > 0 && not line then 1 else 0

(* Bounds come from BENCHMARK.json when run from the repository root,
   else from the catalogue. *)
let compare base next =
  let bounds =
    if Sys.file_exists "BENCHMARK.json" then Gate.bounds_of "BENCHMARK.json"
    else []
  in
  let rows = Gate.compare ~bounds (Gate.load base) (Gate.load next) in
  Gate.print rows;
  let bad = Gate.failing rows in
  Printf.printf "\n%s: %d failing row(s)\n" (if bad = 0 then "PASS" else "FAIL") bad;
  if bad = 0 then 0 else 1

(* One sample per workload with every oracle, then proof that each
   oracle can fail and that the gate catches a changed simulated
   metric. *)
let smoke () =
  let t0 = now () in
  let bad = ref 0 in
  let fail fmt =
    Printf.ksprintf
      (fun s ->
        incr bad;
        print_endline ("smoke FAILED: " ^ s))
      fmt
  in
  let measured =
    List.map
      (fun w ->
        let m = W.measure ~warmup:0 w ~seed:1 ~budget:(Samples 1) in
        Printf.printf "smoke %-18s %3d checks, %d failed\n" (W.name w)
          m.checks.attempted m.checks.failed;
        List.iter (fail "%s") m.checks.failures;
        (w, m))
      W.all
  in
  let facts w = (List.assoc w measured).W.facts in
  let self_test what ~clean ~corrupt =
    let fails f =
      let c = W.Checks.create () in
      f c;
      W.Checks.fail_frac c > 0.
    in
    if fails clean then fail "self-test %s: clean input fails" what
    else if not (fails corrupt) then fail "self-test %s: oracle did not fail" what
  in
  let reference = (facts W.Stencil).reference in
  let corrupted = Array.copy reference in
  corrupted.(Array.length corrupted / 2) <- corrupted.(Array.length corrupted / 2) + 1;
  self_test "stencil cell"
    ~clean:(fun c ->
      W.check_grid c ~what:"self-test" ~expected:reference (Array.copy reference))
    ~corrupt:(fun c -> W.check_grid c ~what:"self-test" ~expected:reference corrupted);
  let racy = facts W.Racy in
  self_test "flagged word"
    ~clean:(fun c ->
      W.check_f1 c ~what:"self-test" ~truth:racy.truth ~flagged:racy.flagged)
    ~corrupt:(fun c ->
      W.check_f1 c ~what:"self-test" ~truth:racy.truth ~flagged:(List.tl racy.flagged));
  self_test "blocked outcome"
    ~clean:(fun c -> W.check_completed c ~what:"self-test" Dsm_sim.Engine.Completed)
    ~corrupt:(fun c -> W.check_completed c ~what:"self-test" (Dsm_sim.Engine.Blocked 1));
  let results =
    List.map
      (fun (w, m) -> (W.name w, (summarize w [ round_of_measured m ]).metrics))
      measured
  in
  let changed =
    List.map
      (fun (w, ms) ->
        ( w,
          List.map
            (fun (k, (s : Stats.t)) ->
              if String.equal k "msgs_per_op" then (k, Stats.exact (s.median +. 1.))
              else (k, s))
            ms ))
      results
  in
  if Gate.failing (Gate.compare ~bounds:[] results results) <> 0 then
    fail "gate: a result differs from itself";
  if Gate.failing (Gate.compare ~bounds:[] results changed) <> List.length results
  then fail "gate: a changed simulated metric passed";
  Printf.printf "smoke %s in %.1f s\n"
    (if !bad = 0 then "ok" else "FAILED")
    (now () -. t0);
  if !bad = 0 then 0 else 1

let usage =
  "dsmbench [--seed S] [--json FILE] | --trace FILE [--workload W] [--seconds T] \
   | --compare BASE NEW | --smoke | --workload W [--samples K | \
   --seconds T] [--bench-line]"

let () =
  let seed = ref 1 and json = ref None and workload = ref None in
  let samples = ref None and seconds = ref None and trace = ref None in
  let compare_files = ref None in
  let smoke_mode = ref false and line = ref false in
  let base = ref "" in
  let specs =
    [
      ("--seed", Arg.Set_int seed, "S workload seed (default 1)");
      ("--json", Arg.String (fun s -> json := Some s), "FILE write the results as JSON");
      ( "--workload",
        Arg.String (fun s -> workload := Some s),
        "NAME run one workload in this process" );
      ( "--samples",
        Arg.Int (fun k -> samples := Some k),
        "K samples (with --workload; default 10)" );
      ("--seconds", Arg.Float (fun s -> seconds := Some s), "T sample for T seconds");
      ( "--trace",
        Arg.String (fun s -> trace := Some s),
        "FILE traced run; Chrome trace-event JSON to FILE" );
      ( "--compare",
        Arg.Tuple
          [
            Arg.Set_string base;
            Arg.String (fun n -> compare_files := Some (!base, n));
          ],
        "BASE NEW regression gate between two --json result files" );
      ( "--smoke",
        Arg.Set smoke_mode,
        " one sample per workload, every oracle, self-tests" );
      ("--bench-line", Arg.Set line, " end with the BENCHMARK.json result line");
    ]
  in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let workloads =
    match !workload with
    | None -> W.all
    | Some name -> (
        match W.of_name name with
        | Some w -> [ w ]
        | None ->
            Printf.eprintf "dsmbench: unknown workload %S (known: %s)\n" name
              (String.concat ", " (List.map W.name W.all));
            exit 2)
  in
  let budget =
    match (!seconds, !samples) with
    | Some s, _ -> W.Seconds s
    | None, Some k -> W.Samples k
    | None, None -> W.Samples samples_per_round
  in
  let code =
    try
      if !smoke_mode then smoke ()
      else
        match (!compare_files, !trace, !workload) with
        | Some (b, n), _, _ -> compare b n
        | None, Some file, _ ->
            traced ~seed:!seed ~workloads ~budget ~file ~line:!line
        | None, None, Some _ ->
            one_workload (List.hd workloads) ~seed:!seed ~budget ~line:!line
        | None, None, None -> full ~seed:!seed ~json:!json
    with
    | Sys_error msg | Failure msg ->
        Printf.eprintf "dsmbench: %s\n" msg;
        2
    | Json.Parse_error (pos, msg) ->
        Printf.eprintf "dsmbench: malformed JSON at byte %d: %s\n" pos msg;
        2
  in
  exit code
