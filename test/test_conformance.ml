(* Clock conformance: the detector's adaptive clocks (epoch -> dense)
   must behave exactly like the paper's dense vectors.
   Directed seeds reproduce the fingerprints — race set, message trace,
   memory, final clocks — that the epoch, always-dense and sparse
   representations all produced when each was still selectable; every
   race signal over hundreds of randomized schedules is re-judged by the
   dense reference oracle ([Dense_ref]). Batched coherence must be
   detection-invisible: the racy-granule set of an explored workload is
   bit-identical whether or not the transport coalesces. *)

open Dsm_sim
open Dsm_memory
module Machine = Dsm_rdma.Machine
module Coherence = Dsm_rdma.Coherence
module Detector = Dsm_core.Detector
module Config = Dsm_core.Config
module Report = Dsm_core.Report
module Explore = Dsm_explore.Explore
module Probe = Dsm_obs.Probe

(* ------------------------------------------------------------------ *)
(* Part 1: adaptive clocks = dense reference over random schedules.   *)
(* ------------------------------------------------------------------ *)

type fingerprint = {
  races : int;
  race_csv : string; (* every signal with both clocks: the exact race set *)
  messages : int;
  words : int;
  time : float;
  violations : int;
  memory : int list;
  final_clocks : string; (* every process clock, rendered *)
}

(* One random run over [n] processes and [max 3 (n/2)] shared variables:
   puts, gets, atomics (fetch_add / CAS), whole-variable accumulates and
   mutex-protected RMWs. Gets and atomics absorb remote clocks, so at
   larger [n] accessor clocks accumulate many active components, far
   past the epoch -> dense promotion — the regime Part 1 must also
   cover, including RMW S-clock traffic across that boundary.
   Every race signal is re-judged by the dense reference. *)
let run_once ~n ~seed ~ops () =
  let sim = Engine.create ~seed () in
  let latency =
    Dsm_net.Latency.Jittered
      { model = Dsm_net.Latency.Constant 1.0; mean_jitter = 2.0 }
  in
  let m = Machine.create sim ~n ~latency () in
  let checker = Coherence.attach m in
  let d =
    Detector.create m
      ~config:
        { Config.default with Config.granularity = Config.Word }
      ()
  in
  let nvars = max 3 (n / 2) in
  let vars =
    Array.init nvars (fun i ->
        Machine.alloc_public m ~pid:(i mod n)
          ~name:(Printf.sprintf "v%d" i)
          ~len:4 ())
  in
  let mutexes =
    Array.init nvars (fun i ->
        Machine.alloc_public m ~pid:(i mod n)
          ~name:(Printf.sprintf "m%d" i)
          ~len:1 ())
  in
  for pid = 0 to n - 1 do
    let g = Prng.create ~seed:(seed + (97 * pid)) in
    let plan =
      List.init ops (fun _ ->
          (Prng.int g 6, Prng.int g nvars, Prng.int g 4, Prng.float g 15.0))
    in
    Machine.spawn m ~pid (fun p ->
        let buf = Machine.alloc_private m ~pid ~len:4 () in
        List.iter
          (fun (op, v, word, think) ->
            Machine.compute p think;
            let var = vars.(v) in
            let target =
              Addr.global ~pid:var.Addr.base.pid ~space:Addr.Public
                ~offset:(var.Addr.base.offset + word)
            in
            match op with
            | 0 -> Detector.put d p ~src:buf ~dst:var
            | 1 -> Detector.get d p ~src:var ~dst:buf
            | 2 -> ignore (Detector.fetch_add d p ~target ~delta:1)
            | 3 ->
                ignore
                  (Detector.cas d p ~target ~expected:0 ~desired:(pid + 1))
            | 4 ->
                (* multi-word RMW: accumulate over the whole variable *)
                let aop =
                  [| Dsm_rdma.Message.Add; Min; Max; Bor |].(word)
                in
                ignore (Detector.accumulate d p ~src:buf ~dst:var ~aop)
            | _ ->
                let h = Detector.lock d p mutexes.(v) in
                let cell =
                  Addr.region ~pid:var.Addr.base.pid ~space:Addr.Public
                    ~offset:(var.Addr.base.offset + word)
                    ~len:1
                in
                let scratch = Machine.alloc_private m ~pid ~len:1 () in
                Detector.get d p ~src:cell ~dst:scratch;
                Detector.put d p ~src:scratch ~dst:cell;
                Detector.unlock d p h)
          plan)
  done;
  (match Machine.run m with
  | Engine.Completed -> ()
  | Engine.Blocked k -> Alcotest.failf "seed %d blocked (%d)" seed k
  | _ -> Alcotest.failf "seed %d did not complete" seed);
  if not (Dense_ref.signals_concurrent (Detector.report d)) then
    Alcotest.failf "n=%d seed %d: a race signal's clocks are ordered under \
                    the dense reference" n seed;
  {
    races = Report.count (Detector.report d);
    race_csv = Report.to_csv (Detector.report d);
    messages = Machine.fabric_messages m;
    words = Machine.fabric_words m;
    time = Engine.now sim;
    violations = List.length (Coherence.violations checker);
    memory =
      Array.to_list vars
      |> List.concat_map (fun v ->
             Array.to_list (Node_memory.read (Machine.node m v.Addr.base.pid) v));
    final_clocks =
      String.concat ";"
        (List.init n (fun pid ->
             Dsm_clocks.Vector_clock.to_string (Detector.proc_clock d pid)));
  }

let digest fp =
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "%d|%s|%d|%d|%h|%d|%s|%s" fp.races fp.race_csv
          fp.messages fp.words fp.time fp.violations
          (String.concat "," (List.map string_of_int fp.memory))
          fp.final_clocks))

(* Fingerprint digests recorded while the epoch, always-dense and sparse
   representations were all selectable and held identical by this
   suite: the one remaining clock path must reproduce them exactly. *)
let golden_n4 =
  [
    (1, "35deb1e35f8e7b0520681c7b0fdaf90a");
    (2, "2b823d50f720558fafc318090b27d67f");
    (3, "98834f8d9fddcc7f8135276993902d64");
    (5, "646c7928836c0366c49691aa4d024313");
    (8, "599c0af56dc1f3deae23282fee3803da");
    (13, "69c84f3b47705cacb322bb509c3a85f3");
    (21, "2b0620214383aadf3c362c238c83791f");
    (34, "026d788b5ca2e0c18c253bd704e6a2a2");
    (55, "6a77a576f37b7c8d21646e4f426a6006");
    (89, "8c830f5eb02b4093b74071eea97f55cd");
    (144, "2555ce4a21eebf97593d12ec1cebc326");
    (233, "427bca281711b44f7ffd52d9adc6650d");
    (377, "8c3579a44eee3b1d579d31bbf150dce7");
    (610, "881201c6ac29658bf32f0a1c1d3aa267");
    (987, "bd82ff37a4360ed56ad998dfa3b80bd6");
  ]

let golden_n16 =
  [
    (7, "1afe7664dd8ab19ab11b4769ba2950ea");
    (19, "95bf5e6dfd01856b0028dbd3c0c05d66");
    (42, "f35b9344a75410e3145133b1246217cf");
    (101, "46ae71d209e819f986d6a3dd927058e4");
    (257, "7421a3c2d6fa013c2df76d10a4e2be8b");
  ]

let check_golden ~n ~ops golden =
  List.iter
    (fun (seed, want) ->
      let fp = run_once ~n ~seed ~ops () in
      Alcotest.(check string)
        (Printf.sprintf "n=%d seed %d: fingerprint" n seed)
        want (digest fp);
      Alcotest.(check int)
        (Printf.sprintf "n=%d seed %d: coherent" n seed)
        0 fp.violations)
    golden

(* Directed small-n seeds: mostly-epoch clocks, the fast path. *)
let test_conformance_directed () = check_golden ~n:4 ~ops:12 golden_n4

(* Directed promotion-boundary seeds: n = 16 with threshold max 4 (n/8)
   = 4, so any clock with five active components has been promoted to
   dense storage mid-run — the pairs must survive the round trip. *)
let test_conformance_promotion () = check_golden ~n:16 ~ops:8 golden_n16

(* Randomized schedules. Together with the directed cases above and the
   batched differential below, the suite covers > 500 schedules. Each
   QCheck case is one schedule, run twice: the two runs must agree bit
   for bit, and every race signal must hold under the dense reference
   (checked inside [run_once]). The names keep the epoch = dense =
   sparse sweep they replace; the one clock path passes through the
   epoch and dense shapes. *)
let conformant ~n ~ops seed =
  let fp = run_once ~n ~seed ~ops () in
  fp = run_once ~n ~seed ~ops () && fp.violations = 0

let prop_conformant_small =
  QCheck.Test.make ~name:"epoch = dense = sparse (n=4)" ~count:380
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 1_000 2_000_000))
    (conformant ~n:4 ~ops:8)

let prop_conformant_wide =
  QCheck.Test.make ~name:"epoch = dense = sparse (n=12, past threshold)"
    ~count:50
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 1_000 2_000_000))
    (conformant ~n:12 ~ops:6)

(* ------------------------------------------------------------------ *)
(* Part 2: batched coherence is detection-invisible.                   *)
(* ------------------------------------------------------------------ *)

(* Per-run probe collector: racy granules, check/message/batch counts. *)
type collector = {
  mutable granules : (int * int * int) list; (* (node, offset, len) *)
  mutable checks : int;
  mutable msgs : int;
  mutable flushes : int;
}

let attach_collector ctx =
  let c = { granules = []; checks = 0; msgs = 0; flushes = 0 } in
  Probe.attach (Explore.ctx_probe ctx) Probe.(race lor check lor msg lor op)
    (function
    | Probe.Race_signal { node; offset; len; _ } ->
        c.granules <- (node, offset, len) :: c.granules
    | Probe.Detector_check _ -> c.checks <- c.checks + 1
    | Probe.Msg_sent _ -> c.msgs <- c.msgs + 1
    | Probe.Batch_flush _ -> c.flushes <- c.flushes + 1
    | _ -> ());
  c

let reset_collector c =
  c.granules <- [];
  c.checks <- 0;
  c.msgs <- 0;
  c.flushes <- 0

let granule_set c = List.sort_uniq compare c.granules

(* 50 explored schedules of the racy neighbour-push workload, batched
   vs unbatched. The workload is put-only and barrier-free, so its
   racy-granule set is independent of the schedule AND of transport
   batching (see [Dsm_workload.Scale]): per walk, both variants must
   report the identical granule set and per-operation check count, while
   the batched variant ships strictly fewer fabric messages and is the
   only one to flush batches. *)
let test_batched_differential () =
  let spec scenario =
    { Explore.default_spec with scenario; n = 5; seed = 11 }
  in
  let ctx_plain = Explore.create_ctx (spec "workload:scale") in
  let ctx_batched = Explore.create_ctx (spec "workload:scale-batched") in
  let c_plain = attach_collector ctx_plain in
  let c_batched = attach_collector ctx_batched in
  for walk = 0 to 49 do
    reset_collector c_plain;
    reset_collector c_batched;
    let r_plain = Explore.run_once_in ctx_plain (Explore.Walk walk) in
    let r_batched = Explore.run_once_in ctx_batched (Explore.Walk walk) in
    List.iter
      (fun (name, (r : Explore.run_result)) ->
        Alcotest.(check bool)
          (Printf.sprintf "walk %d: %s completed" walk name)
          true
          (r.Explore.outcome = Explore.Completed);
        Alcotest.(check int)
          (Printf.sprintf "walk %d: %s invariants" walk name)
          0
          (List.length r.Explore.violations))
      [ ("plain", r_plain); ("batched", r_batched) ];
    Alcotest.(check int)
      (Printf.sprintf "walk %d: race count" walk)
      r_plain.Explore.races r_batched.Explore.races;
    Alcotest.(check bool)
      (Printf.sprintf "walk %d: racy granule set" walk)
      true
      (granule_set c_plain = granule_set c_batched);
    Alcotest.(check bool)
      (Printf.sprintf "walk %d: granules observed" walk)
      true
      (granule_set c_plain <> []);
    Alcotest.(check int)
      (Printf.sprintf "walk %d: per-op check count" walk)
      c_plain.checks c_batched.checks;
    Alcotest.(check bool)
      (Printf.sprintf "walk %d: batching coalesced messages (%d < %d)"
         walk c_batched.msgs c_plain.msgs)
      true
      (c_batched.msgs < c_plain.msgs);
    Alcotest.(check bool)
      (Printf.sprintf "walk %d: batch flushes only when batched" walk)
      true
      (c_batched.flushes > 0 && c_plain.flushes = 0)
  done

let () =
  Alcotest.run "conformance"
    [
      ( "clock-reps",
        [
          Alcotest.test_case "directed seeds (n=4)" `Quick
            test_conformance_directed;
          Alcotest.test_case "promotion boundary (n=16)" `Slow
            test_conformance_promotion;
          QCheck_alcotest.to_alcotest prop_conformant_small;
          QCheck_alcotest.to_alcotest prop_conformant_wide;
        ] );
      ( "batched-coherence",
        [
          Alcotest.test_case "batched = unbatched race sets (50 walks)"
            `Slow test_batched_differential;
        ] );
    ]
