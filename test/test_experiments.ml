(* Smoke and verdict tests for the experiment sections: every E-section
   must run to completion, and the self-checking tables must not contain
   a FAIL verdict. *)

module Registry = Dsm_experiments.Registry
module Harness = Dsm_experiments.Harness

let render e =
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  Harness.section ppf e;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let test_registry_complete () =
  Alcotest.(check (list string)) "ids"
    [ "E1"; "E2"; "E3"; "E4"; "E5"; "E6"; "E7"; "E8"; "E9"; "E10"; "E11"; "E12"; "E13"; "E14"; "E15"; "E16"; "E17" ]
    (List.map (fun e -> e.Harness.id) Registry.all)

let test_find () =
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  Alcotest.(check (result unit string)) "case-insensitive" (Ok ())
    (Registry.run_only ppf "e7");
  Format.pp_print_flush ppf ();
  Alcotest.(check bool) "ran E7" true
    (String.starts_with ~prefix:"\n=== E7 " (Buffer.contents buf));
  Alcotest.(check (result unit string)) "unknown"
    (Error "unknown experiment \"E99\"")
    (Registry.run_only ppf "E99")

let check_experiment e () =
  let out = render e in
  Alcotest.(check bool)
    (e.Harness.id ^ " produced output")
    true
    (String.length out > 100);
  Alcotest.(check bool) (e.Harness.id ^ " has no FAIL verdict") false
    (Test_util.contains out "FAIL")

let expected_markers =
  [
    ("E1", "rejected: true");
    ("E2", "put = one message");
    ("E3", "delay (us)");
    ("E4", "PASS");
    ("E5", "RACE SIGNALED");
    ("E6", "blind, as predicted");
    ("E7", "piggyback");
    ("E8", "V+W (paper)");
    ("E9", "lockset (Eraser)");
    ("E10", "one-sided");
    ("E11", "FALSE POSITIVES");
    ("E12", "fetch-and-add");
    ("E13", "yes");
    ("E14", "coherent");
    ("E15", "both clean");
    ("E16", "paged SVM");
    ("E17", "pre-compiler");
  ]

let test_markers () =
  List.iter
    (fun (id, marker) ->
      match List.find_opt (fun e -> e.Harness.id = id) Registry.all with
      | None -> Alcotest.failf "%s missing" id
      | Some e ->
          Alcotest.(check bool)
            (Printf.sprintf "%s mentions %S" id marker)
            true
            (Test_util.contains (render e) marker))
    expected_markers

(* Regression (ISSUE 5 bug fix): [build_figure] used to accept machines
   with fewer than [figure_min_nodes] processes and crash (or silently
   drop participants) while spawning; it must refuse up front with a
   clean [Error] — for every figure, before any state is built. *)
let test_build_figure_rejects_small_machine () =
  let module Figures = Dsm_experiments.Figures in
  let module Machine = Dsm_rdma.Machine in
  List.iter
    (fun n ->
      let sim = Dsm_sim.Engine.create () in
      let m =
        Machine.create sim ~n ~latency:(Dsm_net.Latency.Constant 1.0) ()
      in
      List.iter
        (fun name ->
          match Figures.build_figure name m with
          | Error msg ->
              Alcotest.(check bool)
                (Printf.sprintf "%s n=%d error names the floor" name n)
                true
                (Test_util.contains msg
                   (string_of_int Figures.figure_min_nodes))
          | Ok _ ->
              Alcotest.failf "%s accepted a %d-process machine" name n)
        Figures.figure_names;
      Alcotest.(check bool)
        (Printf.sprintf "n=%d machine untouched" n)
        true
        (Machine.fabric_messages m = 0))
    [ 1; 2 ];
  (* the floor itself still builds *)
  let sim = Dsm_sim.Engine.create () in
  let m =
    Machine.create sim ~n:Figures.figure_min_nodes
      ~latency:(Dsm_net.Latency.Constant 1.0) ()
  in
  (match Figures.build_figure "fig2" m with
  | Ok None -> ()
  | Ok (Some _) -> Alcotest.fail "fig2 returned a detector"
  | Error msg -> Alcotest.failf "fig2 rejected at the floor: %s" msg);
  (* unknown names still get the name error, not the size error *)
  (match Figures.build_figure "fig9" m with
  | Error msg ->
      Alcotest.(check bool) "unknown name reported" true
        (Test_util.contains msg "unknown figure scenario")
  | Ok _ -> Alcotest.fail "unknown figure accepted")

let () =
  let per_experiment =
    List.map
      (fun e ->
        Alcotest.test_case (e.Harness.id ^ " runs clean") `Slow
          (check_experiment e))
      Registry.all
  in
  Alcotest.run "experiments"
    [
      ( "registry",
        [
          Alcotest.test_case "complete" `Quick test_registry_complete;
          Alcotest.test_case "find" `Quick test_find;
        ] );
      ("sections", per_experiment);
      ("markers", [ Alcotest.test_case "content" `Slow test_markers ]);
      ( "figures",
        [
          Alcotest.test_case "small machine rejected" `Quick
            test_build_figure_rejects_small_machine;
        ] );
    ]
