(* Delta-encoded clock piggybacks. The wire encoding is accounting-only:
   the latency model prices the paper's nominal n+1 clock words on every
   clock-carrying message, while the adaptive delta encoding must ship
   strictly fewer. This suite holds the live stack to that — the
   machine-level directed tests (retransmitted deltas, reorder
   degradation), pinned reliable runs under faults, a 50-walk explorer
   batch, and the corpus of replay tokens minted while the wire encoding
   was still selectable (their [w=] field must parse and change
   nothing). *)

open Dsm_sim
open Dsm_memory
module Machine = Dsm_rdma.Machine
module Message = Dsm_rdma.Message
module Codec = Dsm_clocks.Codec
module Detector = Dsm_core.Detector
module Config = Dsm_core.Config
module Report = Dsm_core.Report
module Explore = Dsm_explore.Explore
module Token = Dsm_explore.Token
module Fault = Dsm_net.Fault
module Metrics = Dsm_obs.Metrics

(* The regime the delta encoding is for: [workers] active processes in
   an [n]-process machine ([workers << n] makes dense frames pay for
   every silent pid), whose clocks first get enriched with each other's
   entries through a mutex-protected shared cell, and which then settle
   into disjoint puts where only their own component advances between
   consecutive messages on an edge — many live entries, few changed
   ones, so delta beats sparse beats dense. Race-free by construction
   (the shared cell is lock-protected, the put targets disjoint). *)
let run_puts ?faults ?reliable ~n ~workers ~rounds ~seed () =
  let sim = Engine.create ~seed () in
  let m =
    Machine.create sim ~n ~latency:(Dsm_net.Latency.Constant 2.0) ?faults
      ?reliable ()
  in
  let d =
    Detector.create m
      ~config:{ Config.default with Config.granularity = Config.Word }
      ()
  in
  let var = Machine.alloc_public m ~pid:0 ~name:"x" ~len:n () in
  let shared = Machine.alloc_public m ~pid:0 ~name:"c" ~len:1 () in
  let mu = Machine.alloc_public m ~pid:0 ~name:"mu" ~len:1 () in
  for pid = 1 to workers do
    Machine.spawn m ~pid (fun p ->
        let buf = Machine.alloc_private m ~pid ~len:1 () in
        let scratch = Machine.alloc_private m ~pid ~len:1 () in
        (* enrichment: the lock clock carries every previous holder's
           entries into this worker's clock *)
        for _ = 1 to 2 do
          let h = Detector.lock d p mu in
          Detector.get d p ~src:shared ~dst:scratch;
          Detector.put d p ~src:scratch ~dst:shared;
          Detector.unlock d p h
        done;
        (* steady state: disjoint targets, one component advancing *)
        let dst =
          Addr.region ~pid:0 ~space:Addr.Public
            ~offset:(var.Addr.base.offset + pid) ~len:1
        in
        for _ = 1 to rounds do
          Machine.compute p 1.0;
          Detector.put d p ~src:buf ~dst
        done)
  done;
  (match Machine.run m with
  | Engine.Completed -> ()
  | Engine.Blocked k -> Alcotest.failf "run blocked (%d)" k
  | _ -> Alcotest.fail "run did not complete");
  (m, d)

(* Every piggyback frame is a two-word header (tag, seq) and a payload;
   the paper's cost model charges n+1 words for the payload. *)
let payload_words ~frames ~live = live - (2 * frames)

let nominal_words ~frames ~n = frames * (n + 1)

(* ---------- wire sizes against the nominal allowance ---------- *)

(* The live stream against the paper's nominal n+1 words per
   clock-carrying message: the live payload must come in under it. At the
   frame level, on a warm edge of this run (a worker's enriched clock
   advanced by one tick), delta < sparse < dense. *)
let test_wire_sizes_ordered () =
  let n = 16 in
  let m, d = run_puts ~n ~workers:3 ~rounds:8 ~seed:11 () in
  let dense, sparse, delta = Machine.clock_encodings m in
  let frames = dense + sparse + delta in
  let live = payload_words ~frames ~live:(Detector.clock_words_shipped d) in
  let nominal = nominal_words ~frames ~n in
  Alcotest.(check bool)
    (Printf.sprintf "live < nominal clock words (%d < %d)" live nominal)
    true (live < nominal);
  let before = Detector.proc_clock d 1 in
  let after = Dsm_clocks.Vector_clock.copy before in
  Dsm_clocks.Vector_clock.tick after ~me:1;
  let size mode ?since () =
    Array.length
      (Dsm_clocks.Codec.encode_piggyback ~mode ~seq:0 ?since after)
  in
  let dl = size Dsm_clocks.Codec.Delta ~since:before ()
  and sp = size Dsm_clocks.Codec.Sparse ()
  and de = size Dsm_clocks.Codec.Dense () in
  Alcotest.(check bool)
    (Printf.sprintf "delta < sparse < dense frame (%d < %d < %d)" dl sp de)
    true
    (dl < sp && sp < de);
  Alcotest.(check int) "dense frame is the nominal allowance + tag, seq"
    (n + 1 + 2) de

(* The encoder is adaptive: it must actually emit delta-tagged frames
   once the edges are warm, and every piggyback is one of the three
   tags. *)
let test_delta_frames_emitted () =
  let m, _ = run_puts ~n:8 ~workers:3 ~rounds:8 ~seed:2 () in
  let dense, sparse, delta = Machine.clock_encodings m in
  Alcotest.(check bool)
    (Printf.sprintf "deltas on warm edges (%d dense, %d sparse, %d delta)"
       dense sparse delta)
    true (delta > 0);
  Alcotest.(check bool) "self-contained frames too" true (sparse + dense > 0)

(* ---------- retransmitted deltas ---------- *)

(* Reliable transport over a dup+drop fabric: frames carrying delta
   piggybacks get resent as they were first encoded. The fabric drops
   duplicates and holds back early frames before the piggyback is
   decoded, so each resent delta decodes against its own base (a wrong
   base would fail the decoder's seq check and crash the run). The run
   completes and reproduces bit for bit, race set included. *)
let test_retransmitted_deltas_decode () =
  let faulted () =
    run_puts
      ~faults:(Fault.of_string "dup=0.4,drop=0.3")
      ~reliable:true
      ~n:8 ~workers:3 ~rounds:8 ~seed:6 ()
  in
  let m, d = faulted () in
  Alcotest.(check bool)
    "the plan actually forced retransmits" true
    (Machine.transport_retransmits m > 0);
  let _, _, delta = Machine.clock_encodings m in
  Alcotest.(check bool) "deltas were in flight" true (delta > 0);
  let m', d' = faulted () in
  Alcotest.(check string) "race set reproduces"
    (Report.to_csv (Detector.report d))
    (Report.to_csv (Detector.report d'));
  Alcotest.(check int) "retransmit schedule reproduces"
    (Machine.transport_retransmits m)
    (Machine.transport_retransmits m');
  Alcotest.(check int) "clock words reproduce" (Machine.clock_words_sent m)
    (Machine.clock_words_sent m')

(* ---------- reorder degradation ---------- *)

(* FIFO-bypass reordering without the reliable transport's resequencing
   underneath it would hand the decoder deltas against the wrong base,
   so the encoder must refuse to mint deltas at all: every piggyback on
   this run is self-contained. *)
let test_reorder_degrades_to_self_contained () =
  let m, _ =
    run_puts
      ~faults:(Fault.of_string "reorder=0.5")
      ~n:8 ~workers:3 ~rounds:6 ~seed:9 ()
  in
  let dense, sparse, delta = Machine.clock_encodings m in
  Alcotest.(check int) "no deltas on a reordering fabric" 0 delta;
  Alcotest.(check bool) "piggybacks still flowed" true (dense + sparse > 0)

(* With the reliable transport underneath, the same reordering fabric is
   resequenced before clock absorption, so deltas are allowed again. *)
let test_reliable_reorder_keeps_deltas () =
  let m, _ =
    run_puts
      ~faults:(Fault.of_string "reorder=0.5")
      ~reliable:true
      ~n:8 ~workers:3 ~rounds:8 ~seed:9 ()
  in
  let _, _, delta = Machine.clock_encodings m in
  Alcotest.(check bool) "deltas under reliable resequencing" true (delta > 0)

(* ---------- reliable runs under faults ---------- *)

(* 40 walks of each scenario under each fault plan, reliable transport
   on: per walk the fingerprint, races, violated invariants, fabric
   messages, nominal words and retransmits, digested per batch and
   totalled. Clock and wire words are left out: they price the
   piggyback encoding, not the schedule. Re-recorded when the transport
   went to one retransmit timer per edge: every fingerprint counts the
   run's events, and the random walks draw at choice points that the
   per-frame timers used to join. *)
let reliable_pins =
  [
    ( "getput-checked",
      "drop=0.3",
      "d66da213d176a77909a3f7965c148290 msgs=1240 words=5560 retransmits=160" );
    ( "getput-checked",
      "dup=0.4,drop=0.3",
      "57d1c737ed98dae997383faaa0b345a2 msgs=1560 words=5160 retransmits=240" );
    ( "getput-checked",
      "reorder=0.5,drop=0.2",
      "4a0663533fa2636748135d5206d5845b msgs=1480 words=5600 retransmits=280" );
    ( "workload:random",
      "drop=0.3",
      "582edc012a69ad1ce24a0aeda4be60df msgs=8985 words=29468 retransmits=2332" );
    ( "workload:random",
      "dup=0.4,drop=0.3",
      "3a123b0240acd010318b8548a97a7346 msgs=9863 words=29445 retransmits=2198" );
    ( "workload:random",
      "reorder=0.5,drop=0.2",
      "89aa19e969508bdcdc968524af2cc8dd msgs=8496 words=31376 retransmits=2024" );
    ( "rmwlost-checked",
      "drop=0.3",
      "846bfe4fe763786e165e1b76e22f446e msgs=440 words=1520 retransmits=80" );
    ( "rmwlost-checked",
      "dup=0.4,drop=0.3",
      "6b419a208ba39721f01e28ba85901633 msgs=440 words=1520 retransmits=80" );
    ( "rmwlost-checked",
      "reorder=0.5,drop=0.2",
      "cca9f8b2a8ac4512dde7151f05cd4f70 msgs=320 words=1040 retransmits=0" );
    ( "workload:scale",
      "drop=0.3",
      "8c90e21e90965e134463a9c9c0272449 msgs=35341 words=94826 retransmits=11557" );
    ( "workload:scale",
      "dup=0.4,drop=0.3",
      "c1339eec6b4bcf2665155211ffed79a4 msgs=35888 words=86991 retransmits=8627" );
    ( "workload:scale",
      "reorder=0.5,drop=0.2",
      "8d3d0cd73869e25035ceaf03339ed426 msgs=29679 words=76434 retransmits=7253" );
    ( "workload:histogram-racy",
      "drop=0.3",
      "a63e8e56a30bbc8839cc87faddcfbda4 msgs=2000 words=6400 retransmits=320" );
    ( "workload:histogram-racy",
      "dup=0.4,drop=0.3",
      "6c79f1e31e9a00f2c5c66136c8e33ef7 msgs=2080 words=6920 retransmits=320" );
    ( "workload:histogram-racy",
      "reorder=0.5,drop=0.2",
      "429d30a70cd9445892b760aa5e6d928a msgs=2040 words=6522 retransmits=360" );
  ]

let reliable_batch scenario plan =
  let spec =
    {
      Explore.default_spec with
      scenario;
      n = 3;
      seed = 1;
      faults = Fault.of_string plan;
      reliable = true;
    }
  in
  let ctx = Explore.create_ctx spec in
  let buf = Buffer.create 4096 in
  let msgs = ref 0 and words = ref 0 and retransmits = ref 0 in
  for i = 0 to 39 do
    let r = Explore.run_once_in ctx (Explore.Walk i) in
    let m =
      match Explore.last_built ctx with
      | Some b -> b.Dsm_explore.Scenario.machine
      | None -> Alcotest.fail "no built run"
    in
    msgs := !msgs + Machine.fabric_messages m;
    words := !words + Machine.fabric_words m;
    retransmits := !retransmits + Machine.transport_retransmits m;
    Printf.bprintf buf "%s %d %s %d %d %d\n" r.Explore.fingerprint
      r.Explore.races
      (String.concat ","
         (List.map (fun v -> v.Explore.invariant) r.Explore.violations))
      (Machine.fabric_messages m) (Machine.fabric_words m)
      (Machine.transport_retransmits m)
  done;
  Printf.sprintf "%s msgs=%d words=%d retransmits=%d"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))
    !msgs !words !retransmits

let test_reliable_runs_pinned () =
  Alcotest.(check (list string))
    "reliable batches"
    (List.map (fun (s, p, golden) -> String.concat " " [ s; p; golden ])
       reliable_pins)
    (List.map
       (fun (s, p, _) -> String.concat " " [ s; p; reliable_batch s p ])
       reliable_pins)

(* ---------- live codec oracle ---------- *)

(* The machine prices each piggyback instead of building it. This
   oracle shadows real runs with the full reference codec
   ([Codec_ref]: the build-all-three encoder and the array decoder) and
   per-edge state of its own. For every clock-carrying [Msg_sent] the
   oracle builds the reference frame of the sender's clock against
   the last clock the reference shipped on that edge, and decodes it
   into the reference's mirror of that edge, which must give the
   sender's clock. The fabric's [Net_send] that follows must price
   exactly that frame's length as its clock words, and the machine's
   tally must have counted that frame's tag. A send that carries no
   clock must price none. Acks and resends, which no [Msg_sent]
   precedes, are not checked. *)
type ref_edge = {
  mutable cache : Dsm_clocks.Vector_clock.t option;
  mutable mirror : Dsm_clocks.Vector_clock.t option;
  mutable seq : int;
}

let carries_clock (msg : Dsm_obs.Msg.t) =
  match msg.kind with
  | Put | Put_batch | Get_reply | Atomic_reply | Acc_reply | Lock_granted ->
      true
  | _ -> false

(* Attaches the oracle to [m] before its run; returns the frames it
   checked and the failures it saw, newest first. *)
let attach_codec_oracle ~mode sim m d =
  let edges = Hashtbl.create 16 in
  let pending = ref None and frames = ref 0 and failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  let tally = ref (0, 0, 0) in
  Dsm_obs.Probe.(attach (Engine.probe sim) (msg lor net)) (function
    | Dsm_obs.Probe.Msg_sent { src; dst; msg; _ } when carries_clock msg ->
        let e =
          match Hashtbl.find_opt edges (src, dst) with
          | Some e -> e
          | None ->
              let e = { cache = None; mirror = None; seq = 0 } in
              Hashtbl.add edges (src, dst) e;
              e
        in
        let v = Detector.proc_clock d src in
        let w = Codec_ref.encode_piggyback ~mode ~seq:e.seq ?since:e.cache v in
        let v', seq =
          Codec_ref.decode_piggyback ~expect_seq:e.seq ?base:e.mirror w
        in
        if not (Test_util.vc_equal v v') then
          fail "%d->%d frame %d decodes to another clock" src dst e.seq;
        e.cache <- Some v;
        e.mirror <- Some v';
        e.seq <- seq + 1;
        pending := Some (src, dst, Some w)
    | Msg_sent { src; dst; _ } -> pending := Some (src, dst, None)
    | Net_send { src; dst; clock_words; _ } -> (
        match !pending with
        | None -> ()
        | Some (s, t, w) ->
            pending := None;
            if (s, t) <> (src, dst) then
              fail "Net_send %d->%d after Msg_sent %d->%d" src dst s t;
            let words = match w with Some w -> Array.length w | None -> 0 in
            if clock_words <> words then
              fail "%d->%d priced %d clock words, reference frame %d" src dst
                clock_words words;
            let dense, sparse, delta = !tally in
            let expected =
              match Option.map Codec_ref.piggyback_mode_of w with
              | None -> !tally
              | Some Codec.Dense -> (dense + 1, sparse, delta)
              | Some Codec.Sparse -> (dense, sparse + 1, delta)
              | Some Codec.Delta -> (dense, sparse, delta + 1)
            in
            tally := Machine.clock_encodings m;
            if !tally <> expected then fail "%d->%d tally off the tag" src dst;
            if w <> None then incr frames)
    | _ -> ());
  (frames, failures)

type shape = Push | Stencil | Racy | Explore_random

let shape_name = function
  | Push -> "push"
  | Stencil -> "stencil"
  | Racy -> "racy"
  | Explore_random -> "explore"

(* The four benchmark workload shapes at small n. *)
let setup_shape shape env ~seed =
  match shape with
  | Push ->
      Dsm_workload.Scale.setup env
        { Dsm_workload.Scale.rounds = 2; chunk = 2; racy = false;
          batched = true; think_mean = 0.; seed }
  | Stencil ->
      ignore
        (Dsm_workload.Stencil.setup env
           ~collectives:(Dsm_pgas.Collectives.create env)
           { Dsm_workload.Stencil.cells_per_node = 8; iterations = 2; seed })
  | Racy ->
      Dsm_workload.Random_access.setup env
        { Dsm_workload.Random_access.default with
          ops_per_proc = 30; vars = 8; read_fraction = 0.5;
          atomic_fraction = 0.1; seed }
  | Explore_random ->
      Dsm_workload.Random_access.setup env
        { Dsm_workload.Random_access.default with
          ops_per_proc = 20; think_mean = 1.0; seed }

(* Fabric plans: fault-free, [dup=0.4,drop=0.3] and [reorder] under the
   reliable transport, an unreliable faulty fabric and the eventual
   model's reordered put lanes (both on the sparse fallback). *)
let oracle_plans =
  let nic = Dsm_rdma.Model.Nic_atomic in
  [
    ("fault-free", None, false, nic, Codec.Delta);
    ("reliable dup/drop", Some "dup=0.4,drop=0.3", true, nic, Codec.Delta);
    ("reliable reorder", Some "reorder=0.5", true, nic, Codec.Delta);
    ("unreliable faulty", Some "reorder=0.5,drop=0.05", false, nic, Codec.Sparse);
    ("eventual", None, false, Dsm_rdma.Model.Eventual, Codec.Sparse);
  ]

let test_live_codec_oracle () =
  List.iter
    (fun shape ->
      List.iter
        (fun (plan, faults, reliable, model, mode) ->
          let n = match shape with Explore_random -> 3 | _ -> 5 in
          let sim = Engine.create ~seed:3 () in
          let m =
            Machine.create sim ~n ~private_words:256 ~public_words:256
              ?faults:(Option.map Fault.of_string faults)
              ~reliable
              ~model ()
          in
          let d = Detector.create m () in
          setup_shape shape (Dsm_pgas.Env.checked d) ~seed:3;
          let frames, failures = attach_codec_oracle ~mode sim m d in
          ignore (Machine.run m);
          let name = Printf.sprintf "%s, %s" (shape_name shape) plan in
          Alcotest.(check (list string)) (name ^ ": no failure") []
            (List.rev !failures);
          let dense, sparse, delta = Machine.clock_encodings m in
          Alcotest.(check int) (name ^ ": every frame checked")
            (dense + sparse + delta) !frames;
          Alcotest.(check bool) (name ^ ": frames sent") true (!frames > 0);
          if plan = "reliable dup/drop" then
            Alcotest.(check bool) (name ^ ": frames resent") true
              (Machine.transport_retransmits m > 0);
          if mode = Codec.Sparse then
            Alcotest.(check int) (name ^ ": no deltas") 0 delta)
        oracle_plans)
    [ Push; Stencil; Racy; Explore_random ]

(* ---------- 50-walk explorer batch ---------- *)

(* [token] with a [w=] field spliced in where the old printer put it:
   after [seed]/[l], before the rest. *)
let with_wire token w =
  match String.split_on_char '|' token with
  | magic :: s :: n :: seed :: rest ->
      let l, rest =
        match rest with
        | l :: rest when String.starts_with ~prefix:"l=" l -> ([ l ], rest)
        | _ -> ([], rest)
      in
      String.concat "|" ((magic :: s :: n :: seed :: l) @ (("w=" ^ w) :: rest))
  | _ -> Alcotest.failf "malformed token %S" token

let without_wire token =
  String.concat "|"
    (List.filter
       (fun f -> not (String.starts_with ~prefix:"w=" f))
       (String.split_on_char '|' token))


let walks = 50

(* 50 walk schedules of a racy 3-process workload: every walk replays
   from its token, with or without an old [w=] field, to the same
   fingerprint and race count, and over the batch the live clock payload
   stays under the nominal n+1 words per clock-carrying message. *)
let test_explore_differential () =
  let spec =
    {
      Explore.default_spec with
      scenario = "workload:master-worker-racy";
      n = 3;
      seed = 4;
    }
  in
  let metrics = Metrics.create () in
  let ctx = Explore.create_ctx ~metrics spec in
  for i = 0 to walks - 1 do
    let r = Explore.run_once_in ctx (Explore.Walk i) in
    let token = Token.to_string (Token.make spec r.Explore.decisions) in
    List.iter
      (fun w ->
        match
          Result.bind (Token.of_string (with_wire token w)) Explore.replay
        with
        | Error e -> Alcotest.failf "walk %d w=%s: %s" i w e
        | Ok r' ->
            Alcotest.(check string)
              (Printf.sprintf "walk %d w=%s fingerprint" i w)
              r.Explore.fingerprint r'.Explore.fingerprint;
            Alcotest.(check int)
              (Printf.sprintf "walk %d w=%s races" i w)
              r.Explore.races r'.Explore.races)
      [ "dense"; "delta" ]
  done;
  let snap = Metrics.snapshot metrics in
  match List.assoc_opt "net.clock_words" snap.Metrics.histograms with
  | None -> Alcotest.fail "no clock words observed"
  | Some h ->
      let frames = h.Metrics.count in
      let live = payload_words ~frames ~live:h.Metrics.sum in
      let nominal = nominal_words ~frames ~n:spec.n in
      Alcotest.(check bool)
        (Printf.sprintf "live < nominal clock words over %d walks (%d < %d)"
           walks live nominal)
        true (live < nominal)

(* ---------- old tokens ---------- *)

(* Every [w=] token minted while the wire encoding was selectable — the
   forms in the test rules, the docs and this suite — with the
   fingerprint its run had then. Each must replay to that fingerprint,
   exactly as its [w]-less form does, and print without the field.
   The master-worker token's fingerprint was re-recorded when the
   unused broadcast and scatter regions left the collectives' layout,
   which moved its public offsets and nothing else. The two [r=1]
   fingerprints were re-recorded when the reliable transport went to
   one retransmit timer per edge: a frame acked before its timeout no
   longer leaves a timer event, so each run counts fewer events, with
   the same outcome, sim time, retransmits and violations. *)
let old_tokens =
  [
    ( "dsm1|s=getput|n=2|seed=1|w=delta|f=none|r=0|b=0|me=200000|d=",
      "8176d3fae43a2b798aa8459793841fe1" );
    ( "dsm1|s=getput|n=2|seed=1|w=dense|f=none|r=0|b=0|me=200000|d=1,0,2",
      "8176d3fae43a2b798aa8459793841fe1" );
    ( "dsm1|s=getput|n=2|seed=1|w=sparse|f=none|r=0|b=0|me=200000|d=1,0,2",
      "8176d3fae43a2b798aa8459793841fe1" );
    ( "dsm1|s=getput|n=2|seed=7|w=dense|f=drop=0.2,dup=0.1|r=1|b=1|me=200000|d=",
      "71916b80590d25ad489d57a78cae78c1" );
    ( "dsm1|s=getput|n=2|seed=7|l=constant:1|w=dense|f=drop=0.2|r=1|b=1|me=200000|d=1,0,2",
      "7be5ddc5037e616306ce507aeaae2320" );
    ( "dsm1|s=getput-checked|n=2|seed=1|l=constant:1|w=sparse|f=none|r=0|b=1|me=200000|d=",
      "ab4897354f138be613bd6e1c813d984a" );
    ( "dsm1|s=rmwlost-checked|n=3|seed=1|l=constant:1|w=delta|m=relaxed|f=none|r=0|b=0|me=200000|d=1,1,1",
      "e51ac3513c1ac5cb477bb7aea1feb2fd" );
    ( "dsm1|s=workload:master-worker-racy|n=3|seed=4|w=dense|f=none|r=0|b=0|me=200000|d=2,1",
      "9de258580039f20d8f11ea023003bd77" );
  ]

let replay_exn token =
  match Token.of_string token with
  | Error e -> Alcotest.failf "%S does not parse: %s" token e
  | Ok t -> (
      if without_wire (Token.to_string t) <> Token.to_string t then
        Alcotest.failf "%S prints a w= field" token;
      match Explore.replay t with
      | Error e -> Alcotest.failf "%S does not replay: %s" token e
      | Ok r -> r)

let test_replay_across_wires () =
  List.iter
    (fun (token, golden) ->
      let old_run = replay_exn token in
      let new_run = replay_exn (without_wire token) in
      Alcotest.(check string) (token ^ " fingerprint") golden
        old_run.Explore.fingerprint;
      Alcotest.(check string) (token ^ " = w-less fingerprint") golden
        new_run.Explore.fingerprint;
      Alcotest.(check int) (token ^ " races") new_run.Explore.races
        old_run.Explore.races;
      Alcotest.(check int) (token ^ " violations")
        (List.length new_run.Explore.violations)
        (List.length old_run.Explore.violations))
    old_tokens;
  match
    Token.of_string "dsm1|s=getput|n=2|seed=1|w=bogus|f=none|r=0|b=0|me=200000|d="
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "w=bogus was accepted"

(* The planted-bug spec from the acceptance suite: minimization walks
   the same shrink path every time, and its token, with an old [w=dense]
   field spliced in or not, replays the same violating run. *)
let test_minimized_token_differential () =
  let spec =
    {
      Explore.default_spec with
      seed = 7;
      faults = Fault.of_string "drop=0.2,dup=0.1";
      reliable = true;
      bug = true;
    }
  in
  let minimized () =
    let stats = Explore.explore_random_in (Explore.create_ctx spec) ~runs:64 in
    match stats.Explore.first with
    | None -> Alcotest.fail "planted bug did not violate"
    | Some (_, r) ->
        let mins = Explore.minimize spec r.Explore.decisions in
        (mins, Token.to_string (Token.make spec mins))
  in
  let mins, tok = minimized () in
  let mins', tok' = minimized () in
  Alcotest.(check (list int)) "minimized decisions" mins mins';
  Alcotest.(check string) "token" tok tok';
  let r = replay_exn tok and r' = replay_exn (with_wire tok "dense") in
  Alcotest.(check string) "fingerprint blind to w=" r.Explore.fingerprint
    r'.Explore.fingerprint;
  Alcotest.(check bool) "still violating" true (r'.Explore.violations <> [])

let () =
  Alcotest.run "wire"
    [
      ( "sizes",
        [
          Alcotest.test_case "delta < sparse < dense" `Quick
            test_wire_sizes_ordered;
          Alcotest.test_case "delta frames emitted" `Quick
            test_delta_frames_emitted;
        ] );
      ( "faults",
        [
          Alcotest.test_case "retransmitted deltas decode against their base"
            `Quick test_retransmitted_deltas_decode;
          Alcotest.test_case "reorder degrades to self-contained" `Quick
            test_reorder_degrades_to_self_contained;
          Alcotest.test_case "reliable reorder keeps deltas" `Quick
            test_reliable_reorder_keeps_deltas;
          Alcotest.test_case "reliable runs pinned" `Quick
            test_reliable_runs_pinned;
          Alcotest.test_case "live codec oracle" `Quick test_live_codec_oracle;
        ] );
      ( "differential",
        [
          Alcotest.test_case "50-walk explorer differential" `Slow
            test_explore_differential;
          Alcotest.test_case "minimized token differential" `Slow
            test_minimized_token_differential;
          Alcotest.test_case "replay across wires" `Quick
            test_replay_across_wires;
        ] );
    ]
