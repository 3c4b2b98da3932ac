(* E6-E7: clock sizes (§4.3) and detection overhead (§5.1). *)

open Dsm_clocks
open Dsm_stats
open Dsm_pgas
module Machine = Dsm_rdma.Machine
module Detector = Dsm_core.Detector
module Config = Dsm_core.Config
module Report = Dsm_core.Report

(* ---------- E6: clock sizes ---------- *)

(* The live counterpart of the static size table: the same random
   workload at each n, with clock words read from the fabric's live
   counters ([Machine.clock_words_sent]) — pricing what the adaptive
   wire actually carried rather than re-encoding clocks on the side —
   beside the paper's nominal n+1 words per clock-carrying message. *)
let e6_live ppf =
  let table =
    Table.create
      ~headers:
        [
          "n"; "msgs"; "clock msgs"; "nominal words"; "live words";
          "live/nominal";
        ]
  in
  List.iter
    (fun n ->
      let m =
        Harness.fresh_machine ~n ~latency:Dsm_net.Latency.infiniband_like ()
      in
      let d = Detector.create m () in
      Dsm_workload.Random_access.setup (Env.checked d)
        {
          Dsm_workload.Random_access.default with
          ops_per_proc = 30;
          vars = 2 * n;
          var_len = 8;
          seed = 11;
        };
      Harness.run_to_completion m;
      let dense, sparse, delta = Machine.clock_encodings m in
      let carrying = dense + sparse + delta in
      let nominal = carrying * (n + 1) in
      let live = Machine.clock_words_sent m in
      Table.add_row table
        [
          string_of_int n;
          string_of_int (Machine.fabric_messages m);
          string_of_int carrying;
          string_of_int nominal;
          string_of_int live;
          Printf.sprintf "%.2f" (float_of_int live /. float_of_int nominal);
        ])
    [ 4; 8; 16; 32 ];
  Format.fprintf ppf "%s@." (Table.render table);
  Format.fprintf ppf
    "Live fabric counters: the paper's cost model charges n+1 words on every@.\
     clock-carrying message; the adaptive delta wire ships only the@.\
     components that moved since the last message on the same (src,dst)@.\
     edge, so its cost tracks activity, not process count (live words@.\
     include each frame's two-word tag/seq header, which dominates at@.\
     small n).@.@."

let e6 ppf =
  let table =
    Table.create
      ~headers:
        [
          "n";
          "vector (words)";
          "vector (bytes)";
          "matrix (words)";
          "delta best";
          "delta worst";
          "varint (bytes)";
        ]
  in
  List.iter
    (fun n ->
      let v = Vector_clock.create ~n in
      Vector_clock.tick v ~me:0;
      let m = Matrix_clock.create ~n ~me:0 in
      let dense = Array.length (Codec.encode_vector v) in
      (* Best case: one entry moved since [since]. *)
      let since = Vector_clock.create ~n in
      let best = Array.length (Codec.encode_vector_delta ~since v) in
      (* Worst case: every entry moved. *)
      let far = Vector_clock.of_array (Array.make n 9) in
      let worst = Array.length (Codec.encode_vector_delta ~since far) in
      Table.add_row table
        [
          string_of_int n;
          string_of_int dense;
          string_of_int (Codec.bytes_of_words dense);
          string_of_int (Array.length (Codec.encode_matrix m));
          string_of_int best;
          string_of_int worst;
          string_of_int (Bytes.length (Codec.encode_vector_varint v));
        ])
    [ 2; 4; 8; 16; 32; 64 ];
  Format.fprintf ppf "%s@." (Table.render table);
  Format.fprintf ppf
    "§4.3 (Charron-Bost): no encoding beats n entries in the worst case — the@.\
     differential encoding degrades to 2n+2 words once every entry moves,@.\
     and even the byte-level varint encoding needs >= n+1 bytes.@.@.";
  e6_live ppf;
  (* The Lamport ablation: a scalar clock is totally ordered, so Lemma 1
     never fires. Replay Figure 5a under both clock modes. *)
  let replay clock_mode =
    let m = Harness.fresh_machine () in
    let d = Detector.create m ~config:{ Config.default with Config.clock_mode } () in
    let a = Detector.alloc_shared d ~pid:2 ~name:"a" ~len:1 () in
    Machine.spawn m ~pid:0 (fun p ->
        Detector.put d p ~src:(Harness.private_with m ~pid:0 [| 1 |]) ~dst:a);
    Machine.spawn m ~pid:1 (fun p ->
        Detector.put d p ~src:(Harness.private_with m ~pid:1 [| 2 |]) ~dst:a);
    Harness.run_to_completion m;
    Report.count (Detector.report d)
  in
  let t2 = Table.create ~headers:[ "clock"; "races found on Figure 5a"; "verdict" ] in
  let vec = replay Config.Vector and lam = replay Config.Lamport_only in
  Table.add_row t2
    [ "vector (n words)"; string_of_int vec; (if vec = 1 then "PASS" else "FAIL") ];
  Table.add_row t2
    [
      "Lamport (1 word)";
      string_of_int lam;
      (if lam = 0 then "PASS (blind, as predicted)" else "FAIL");
    ];
  Format.fprintf ppf "%s@." (Table.render t2)

(* ---------- E7: detection overhead ---------- *)

type run_result = {
  sim_time : float;
  messages : int;
  words : int;  (** true wire words, from the fabric's live counter *)
  clock_words : int;  (** clock-piggyback share of [words] *)
  storage : int;
  races : int;
}

let run_workload ~n ~detection ~granularity ~ops =
  let m = Harness.fresh_machine ~n ~latency:Dsm_net.Latency.infiniband_like () in
  let env, detector =
    match detection with
    | None -> (Env.plain m, None)
    | Some transport ->
        let d =
          Detector.create m
            ~config:{ Config.default with Config.transport; granularity }
            ()
        in
        (Env.checked d, Some d)
  in
  Dsm_workload.Random_access.setup env
    {
      Dsm_workload.Random_access.default with
      ops_per_proc = ops;
      vars = 2 * n;
      var_len = 8;
      seed = 11;
    };
  Harness.run_to_completion m;
  {
    sim_time = Dsm_sim.Engine.now (Machine.sim m);
    messages = Machine.fabric_messages m;
    words = Machine.wire_words_sent m;
    clock_words =
      (match detector with
      | Some d -> Detector.clock_words_shipped d
      | None -> 0);
    storage = (match detector with Some d -> Detector.storage_words d | None -> 0);
    races = (match detector with Some d -> Report.count (Detector.report d) | None -> 0);
  }

let e7 ppf =
  let ops = 40 in
  Format.fprintf ppf
    "Random workload, %d one-sided ops per process, 2n variables of 8 words.@.@."
    ops;
  let table =
    Table.create
      ~headers:
        [
          "n";
          "detector";
          "time";
          "msgs";
          "wire words";
          "clock words";
          "storage";
          "races";
        ]
  in
  let base = Hashtbl.create 8 in
  List.iter
    (fun n ->
      let plain = run_workload ~n ~detection:None ~granularity:Config.Variable ~ops in
      Hashtbl.replace base n plain;
      Table.add_row table
        [
          string_of_int n;
          "off";
          Harness.fmt_us plain.sim_time;
          string_of_int plain.messages;
          string_of_int plain.words;
          "0";
          "0";
          "-";
        ];
      List.iter
        (fun (name, transport) ->
          let r =
            run_workload ~n ~detection:(Some transport)
              ~granularity:Config.Variable ~ops
          in
          Table.add_row table
            [
              string_of_int n;
              name;
              Printf.sprintf "%s (%s)" (Harness.fmt_us r.sim_time)
                (Harness.fmt_ratio r.sim_time plain.sim_time);
              Printf.sprintf "%d (%s)" r.messages
                (Harness.fmt_ratio (float_of_int r.messages)
                   (float_of_int plain.messages));
              Printf.sprintf "%d (%s)" r.words
                (Harness.fmt_ratio (float_of_int r.words)
                   (float_of_int plain.words));
              string_of_int r.clock_words;
              string_of_int r.storage;
              string_of_int r.races;
            ])
        [
          ("inline", Config.Inline);
          ("piggyback", Config.Piggyback_txn);
          ("explicit", Config.Explicit_txn);
        ])
    [ 2; 4; 8; 10; 16 ];
  Format.fprintf ppf "%s@." (Table.render table);
  Format.fprintf ppf
    "Wire words are the fabric's live counters: nominal message sizes with@.\
     each clock allowance replaced by the piggyback encoding actually@.\
     chosen (the default --clock-wire delta). §4.3's linear-in-n clock@.\
     cost is the dense ceiling; the explicit transport (Algorithm 5@.\
     verbatim) additionally pays two clock messages per remote granule.@.\
     Detection is a debugging-scale feature: the paper's ~10-process@.\
     regime (§5.1) is exactly where the ratios sit.@.@.";
  (* Granularity ablation at fixed n. *)
  let table2 =
    Table.create ~headers:[ "granularity"; "time"; "wire words"; "storage"; "races" ]
  in
  let plain = Hashtbl.find base 8 in
  List.iter
    (fun (name, granularity) ->
      let r =
        run_workload ~n:8 ~detection:(Some Config.Piggyback_txn) ~granularity
          ~ops
      in
      Table.add_row table2
        [
          name;
          Printf.sprintf "%s (%s)" (Harness.fmt_us r.sim_time)
            (Harness.fmt_ratio r.sim_time plain.sim_time);
          string_of_int r.words;
          string_of_int r.storage;
          string_of_int r.races;
        ])
    [
      ("variable (paper)", Config.Variable);
      ("block of 4", Config.Block 4);
      ("word", Config.Word);
    ];
  Format.fprintf ppf "n=8, piggyback transport:@.%s@." (Table.render table2);
  Format.fprintf ppf
    "Finer granularity multiplies clock storage (one V,W pair per granule)@.\
     and per-op checks; variable granularity is the paper's \"a clock for@.\
     each shared piece of data\".@."

let experiments =
  [
    {
      Harness.id = "E6";
      paper_artifact = "§4.3: clock size lower bound; Lamport ablation";
      run = e6;
    };
    {
      Harness.id = "E7";
      paper_artifact = "§5.1: storage and communication overhead of detection";
      run = e7;
    };
  ]
