(* E1-E5: the paper's figures as executable artifacts. *)

open Dsm_memory
open Dsm_stats
module Machine = Dsm_rdma.Machine
module Detector = Dsm_core.Detector
module Config = Dsm_core.Config
module Report = Dsm_core.Report
module Spacetime = Dsm_trace.Spacetime

(* ---------- E1: Figure 1, memory organization ---------- *)

let e1 ppf =
  let m = Harness.fresh_machine ~n:3 () in
  (* Give each node the memory layout of Figure 1: some private state and
     some public (remotely accessible) variables. *)
  for pid = 0 to 2 do
    ignore (Machine.alloc_private m ~pid ~name:"stack" ~len:64 ());
    ignore (Machine.alloc_private m ~pid ~name:"scratch" ~len:16 ());
    ignore (Machine.alloc_public m ~pid ~name:"x" ~len:1 ());
    ignore (Machine.alloc_public m ~pid ~name:"buffer" ~len:32 ())
  done;
  let table = Table.create ~headers:[ "node"; "space"; "symbol"; "offset"; "words" ] in
  for pid = 0 to 2 do
    List.iter
      (fun (space, name, offset, len) ->
        Table.add_row table
          [
            Printf.sprintf "P%d" pid;
            Addr.space_name space;
            name;
            string_of_int offset;
            string_of_int len;
          ])
      (Node_memory.memory_map (Machine.node m pid))
  done;
  Format.fprintf ppf "%s@." (Table.render table);
  (* Global address space: public words are remotely addressable... *)
  let x1 = Addr.region ~pid:1 ~space:Addr.Public ~offset:0 ~len:1 in
  Machine.spawn m ~pid:0 (fun p ->
      Machine.put p ~src:(Harness.private_with m ~pid:0 [| 7 |]) ~dst:x1 ());
  Harness.run_to_completion m;
  Format.fprintf ppf "P0 put 7 into (P1, pub[0]) -> P1 reads %d locally@."
    (Node_memory.read (Machine.node m 1) x1).(0);
  (* ...private words are not. *)
  let priv1 = Addr.region ~pid:1 ~space:Addr.Private ~offset:0 ~len:1 in
  let rejected = ref false in
  Machine.spawn m ~pid:0 (fun p ->
      try Machine.put p ~src:(Harness.private_with m ~pid:0 [| 9 |]) ~dst:priv1 ()
      with Invalid_argument _ -> rejected := true);
  Harness.run_to_completion m;
  Format.fprintf ppf
    "P0 put into (P1, priv[0]) -> rejected: %b (private memory is local-only)@."
    !rejected

(* ---------- E2: Figure 2, put/get message flow and latency ---------- *)

let time_op ~latency ~words ~op =
  let m = Harness.fresh_machine ~n:3 ~latency () in
  let area = Machine.alloc_public m ~pid:1 ~len:words () in
  let t = ref 0. in
  Machine.spawn m ~pid:2 (fun p ->
      let buf = Machine.alloc_private m ~pid:2 ~len:words () in
      (match op with
      | `Put -> Machine.put p ~src:buf ~dst:area ()
      | `Get -> Machine.get p ~src:area ~dst:buf ());
      t := Dsm_sim.Engine.now (Machine.sim m));
  Harness.run_to_completion m;
  (!t, Machine.fabric_messages m)

let e2 ppf =
  (* The message flow itself, Figure 2: P2 puts to P1, then gets from P1. *)
  let m = Harness.fresh_machine ~n:3 () in
  let arrows =
    Harness.collect_arrows (Dsm_sim.Engine.probe (Machine.sim m))
  in
  let area = Machine.alloc_public m ~pid:1 ~name:"data" ~len:4 () in
  Machine.spawn m ~pid:2 (fun p ->
      let buf = Harness.private_with m ~pid:2 [| 1; 2; 3; 4 |] in
      Machine.put p ~src:buf ~dst:area ~ack:false ();
      Machine.compute p 5.0;
      Machine.get p ~src:area ~dst:buf ());
  Harness.run_to_completion m;
  Format.fprintf ppf "%s@."
    (Spacetime.render ~n:3 ~arrows:(arrows ()) ~marks:[] ());
  Format.fprintf ppf
    "put = one message; get = request + data reply (two messages).@.@.";
  (* Latency sweep across models and sizes. *)
  let models =
    [
      ("constant 1us", Dsm_net.Latency.Constant 1.0);
      ("infiniband-like", Dsm_net.Latency.infiniband_like);
      ("ethernet-like", Dsm_net.Latency.ethernet_like);
    ]
  in
  let table =
    Table.create
      ~headers:[ "model"; "words"; "put (us)"; "get (us)"; "get msgs" ]
  in
  List.iter
    (fun (name, latency) ->
      List.iter
        (fun words ->
          let put_t, _ = time_op ~latency ~words ~op:`Put in
          let get_t, get_m = time_op ~latency ~words ~op:`Get in
          Table.add_row table
            [
              name;
              string_of_int words;
              Printf.sprintf "%.2f" put_t;
              Printf.sprintf "%.2f" get_t;
              string_of_int get_m;
            ])
        [ 1; 16; 256; 4096 ])
    models;
  Format.fprintf ppf "%s@." (Table.render table);
  Format.fprintf ppf
    "(put times include the completion ack; the bare put is one message)@."

(* ---------- E3: Figure 3, put delayed by an in-flight get ---------- *)

(* A one-word put racing the first word of a [words]-long get: the put's
   own transfer time is constant, so the measured delay is purely the
   remainder of the get it had to wait for. *)
let e3_case ~words =
  let latency = Dsm_net.Latency.Linear { base = 1.0; per_word = 0.01 } in
  let run ~contended =
    let m = Harness.fresh_machine ~latency () in
    let src1 = Machine.alloc_public m ~pid:1 ~len:words () in
    let dst2 = Machine.alloc_public m ~pid:2 ~len:words () in
    let put_target =
      Dsm_memory.Addr.region ~pid:2 ~space:Dsm_memory.Addr.Public
        ~offset:dst2.Dsm_memory.Addr.base.offset ~len:1
    in
    let t = ref 0. in
    if contended then
      Machine.spawn m ~pid:2 (fun p -> Machine.get p ~src:src1 ~dst:dst2 ());
    Machine.spawn m ~pid:0 (fun p ->
        Machine.compute p 0.5;
        let buf = Machine.alloc_private m ~pid:0 ~len:1 () in
        Machine.put p ~src:buf ~dst:put_target ();
        t := Dsm_sim.Engine.now (Machine.sim m));
    Harness.run_to_completion m;
    !t
  in
  (run ~contended:false, run ~contended:true)

let e3 ppf =
  let m = Harness.fresh_machine () in
  let arrows =
    Harness.collect_arrows (Dsm_sim.Engine.probe (Machine.sim m))
  in
  let src1 = Machine.alloc_public m ~pid:1 ~name:"a" ~len:4 () in
  let dst2 = Machine.alloc_public m ~pid:2 ~name:"b" ~len:4 () in
  Machine.spawn m ~pid:2 (fun p -> Machine.get p ~src:src1 ~dst:dst2 ());
  Machine.spawn m ~pid:0 (fun p ->
      Machine.compute p 0.5;
      let buf = Machine.alloc_private m ~pid:0 ~len:4 () in
      Machine.put p ~src:buf ~dst:dst2 ());
  Harness.run_to_completion m;
  Format.fprintf ppf "%s@."
    (Spacetime.render ~n:3 ~arrows:(arrows ()) ~marks:[] ());
  Format.fprintf ppf
    "The put from P0 reaches P2 while P2's get still holds the lock on its@.\
     destination region: the NIC queues the write until the get finishes.@.@.";
  let table =
    Table.create
      ~headers:[ "words"; "put alone (us)"; "put vs get (us)"; "delay (us)" ]
  in
  List.iter
    (fun words ->
      let solo, contended = e3_case ~words in
      Table.add_row table
        [
          string_of_int words;
          Printf.sprintf "%.2f" solo;
          Printf.sprintf "%.2f" contended;
          Printf.sprintf "%.2f" (contended -. solo);
        ])
    [ 16; 256; 1024; 4096 ];
  Format.fprintf ppf "%s@." (Table.render table)

(* ---------- E4: Figure 4, concurrent gets are not a race ---------- *)

let e4_case ~use_write_clock =
  let m = Harness.fresh_machine () in
  let d =
    Detector.create m ~config:{ Config.default with Config.use_write_clock } ()
  in
  let a = Detector.alloc_shared d ~pid:0 ~name:"a" ~len:1 () in
  Machine.spawn m ~pid:0 (fun p ->
      Detector.put d p ~src:(Harness.private_with m ~pid:0 [| 65 |]) ~dst:a;
      Detector.barrier_sync d);
  let reader pid =
    Machine.spawn m ~pid (fun p ->
        Machine.compute p 50.0;
        let buf = Machine.alloc_private m ~pid ~len:1 () in
        Detector.get d p ~src:a ~dst:buf)
  in
  reader 1;
  reader 2;
  Harness.run_to_completion m;
  Report.count (Detector.report d)

let e4 ppf =
  let with_w = e4_case ~use_write_clock:true in
  let without_w = e4_case ~use_write_clock:false in
  let table =
    Table.create ~headers:[ "detector"; "signals"; "expected"; "verdict" ]
  in
  Table.add_row table
    [
      "V + W (paper, §4.4)";
      string_of_int with_w;
      "0";
      (if with_w = 0 then "PASS" else "FAIL");
    ];
  Table.add_row table
    [
      "single clock (no W)";
      string_of_int without_w;
      ">= 1 (false positive)";
      (if without_w >= 1 then "PASS" else "FAIL");
    ];
  Format.fprintf ppf "%s@." (Table.render table);
  Format.fprintf ppf
    "Two concurrent gets of an initialized variable: the write clock@.\
     eliminates the read/read false positive the single clock reports.@."

(* ---------- E5: Figure 5 a/b/c ---------- *)

type fig5 = {
  label : string;
  expected_races : [ `Exactly of int | `At_least of int ];
  build :
    Dsm_rdma.Machine.t -> Detector.t -> unit (* spawn the scenario *);
}

let fig5a =
  {
    label = "5a: put(P0->a) || put(P1->a)            -> race";
    expected_races = `Exactly 1;
    build =
      (fun m d ->
        let a = Detector.alloc_shared d ~pid:2 ~name:"a" ~len:1 () in
        Machine.spawn m ~pid:0 (fun p ->
            Detector.put d p ~src:(Harness.private_with m ~pid:0 [| 1 |]) ~dst:a);
        Machine.spawn m ~pid:1 (fun p ->
            Detector.put d p ~src:(Harness.private_with m ~pid:1 [| 2 |]) ~dst:a));
  }

let fig5b =
  {
    label = "5b: get(a) then put(a), causally ordered -> no race";
    expected_races = `Exactly 0;
    build =
      (fun m d ->
        let a = Detector.alloc_shared d ~pid:1 ~name:"a" ~len:1 () in
        Machine.spawn m ~pid:2 (fun p ->
            let buf = Machine.alloc_private m ~pid:2 ~len:1 () in
            Detector.get d p ~src:a ~dst:buf;
            Detector.put d p ~src:buf ~dst:a));
  }

let fig5c =
  {
    label = "5c: put(P0->a); unrelated m2; put(P1->a) -> race";
    expected_races = `At_least 1;
    build =
      (fun m d ->
        let a = Detector.alloc_shared d ~pid:2 ~name:"a" ~len:1 () in
        let c = Detector.alloc_shared d ~pid:0 ~name:"c" ~len:1 () in
        Machine.spawn m ~pid:0 (fun p ->
            Detector.put d p ~src:(Harness.private_with m ~pid:0 [| 1 |]) ~dst:a);
        Machine.spawn m ~pid:1 (fun p ->
            Machine.compute p 10.0;
            Detector.put d p ~src:(Harness.private_with m ~pid:1 [| 9 |]) ~dst:c;
            Detector.put d p ~src:(Harness.private_with m ~pid:1 [| 2 |]) ~dst:a));
  }

let e5 ppf =
  let table =
    Table.create ~headers:[ "scenario"; "signals"; "expected"; "verdict" ]
  in
  List.iter
    (fun f ->
      let m = Harness.fresh_machine () in
      let d = Detector.create m () in
      f.build m d;
      Harness.run_to_completion m;
      let got = Report.count (Detector.report d) in
      let ok, expected_str =
        match f.expected_races with
        | `Exactly k -> (got = k, string_of_int k)
        | `At_least k -> (got >= k, Printf.sprintf ">= %d" k)
      in
      Table.add_row table
        [
          f.label;
          string_of_int got;
          expected_str;
          (if ok then "PASS" else "FAIL");
        ])
    [ fig5a; fig5b; fig5c ];
  Format.fprintf ppf "%s@." (Table.render table);
  (* Render 5a's message diagram with the race mark. *)
  let m = Harness.fresh_machine () in
  let arrows =
    Harness.collect_arrows (Dsm_sim.Engine.probe (Machine.sim m))
  in
  let d = Detector.create m () in
  fig5a.build m d;
  Harness.run_to_completion m;
  let marks =
    List.map
      (fun r ->
        {
          Spacetime.time = r.Report.time;
          pid = r.Report.accessor;
          text = "** RACE SIGNALED **";
        })
      (Report.races (Detector.report d))
  in
  Format.fprintf ppf "Figure 5a replay:@.%s@."
    (Spacetime.render ~n:3 ~arrows:(arrows ()) ~marks ())

(* ---------- figure scenarios on a caller-provided machine ----------

   The CLI's [run --scenario figN] path: the caller builds the machine
   (and attaches probe sinks to its engine) before the scenario is
   populated, so telemetry observes the figure end to end. *)

let figure_names = [ "fig2"; "fig3"; "fig4"; "fig5a"; "fig5b"; "fig5c" ]

let figure_min_nodes = 3

let build_figure name m =
  let fig5 f =
    let d = Detector.create m () in
    f.build m d;
    Ok (Some d)
  in
  (* Every figure spawns processes up to pid 2; on a smaller machine the
     spawns would raise (or silently drop participants) mid-populate, so
     reject the machine before building anything. *)
  if Machine.n m < figure_min_nodes then
    Error
      (Printf.sprintf
         "figure scenario %S needs at least %d processes, machine has %d"
         name figure_min_nodes (Machine.n m))
  else
  match name with
  | "fig2" ->
      let area = Machine.alloc_public m ~pid:1 ~name:"data" ~len:4 () in
      Machine.spawn m ~pid:2 (fun p ->
          let buf = Harness.private_with m ~pid:2 [| 1; 2; 3; 4 |] in
          Machine.put p ~src:buf ~dst:area ~ack:false ();
          Machine.compute p 5.0;
          Machine.get p ~src:area ~dst:buf ());
      Ok None
  | "fig3" ->
      let src1 = Machine.alloc_public m ~pid:1 ~name:"a" ~len:4 () in
      let dst2 = Machine.alloc_public m ~pid:2 ~name:"b" ~len:4 () in
      Machine.spawn m ~pid:2 (fun p -> Machine.get p ~src:src1 ~dst:dst2 ());
      Machine.spawn m ~pid:0 (fun p ->
          Machine.compute p 0.5;
          let buf = Machine.alloc_private m ~pid:0 ~len:4 () in
          Machine.put p ~src:buf ~dst:dst2 ());
      Ok None
  | "fig4" ->
      let d =
        Detector.create m
          ~config:{ Config.default with Config.use_write_clock = true }
          ()
      in
      let a = Detector.alloc_shared d ~pid:0 ~name:"a" ~len:1 () in
      Machine.spawn m ~pid:0 (fun p ->
          Detector.put d p
            ~src:(Harness.private_with m ~pid:0 [| 65 |])
            ~dst:a;
          Detector.barrier_sync d);
      let reader pid =
        Machine.spawn m ~pid (fun p ->
            Machine.compute p 50.0;
            let buf = Machine.alloc_private m ~pid ~len:1 () in
            Detector.get d p ~src:a ~dst:buf)
      in
      reader 1;
      reader 2;
      Ok (Some d)
  | "fig5a" -> fig5 fig5a
  | "fig5b" -> fig5 fig5b
  | "fig5c" -> fig5 fig5c
  | _ ->
      Error
        (Printf.sprintf "unknown figure scenario %S (expected one of: %s)"
           name
           (String.concat ", " figure_names))

let experiments =
  [
    {
      Harness.id = "E1";
      paper_artifact = "Figure 1: private/public memory organization";
      run = e1;
    };
    {
      Harness.id = "E2";
      paper_artifact = "Figure 2: put/get message flow and latency";
      run = e2;
    };
    {
      Harness.id = "E3";
      paper_artifact = "Figure 3: put delayed by an in-flight get";
      run = e3;
    };
    {
      Harness.id = "E4";
      paper_artifact = "Figure 4: concurrent gets are not a race (§4.4)";
      run = e4;
    };
    {
      Harness.id = "E5";
      paper_artifact = "Figure 5: race verdicts on the three message diagrams";
      run = e5;
    };
  ]
