(* Machine fuzzing: random programs over the full operation surface must
   complete, stay coherent, and be bit-deterministic. *)

open Dsm_sim
open Dsm_memory
module Machine = Dsm_rdma.Machine
module Coherence = Dsm_rdma.Coherence
module Detector = Dsm_core.Detector
module Config = Dsm_core.Config
module Report = Dsm_core.Report

type fingerprint = {
  races : int;
  race_csv : string;
      (* every signal rendered with both clocks: the exact race set *)
  messages : int;
  words : int;
  time : float;
  violations : int;
  memory : int list; (* final contents of the shared variables *)
}

(* One random run: 4 processes × [ops] random operations (put / get /
   fetch_add / cas / mutex-protected RMW) over 3 shared variables. *)
let run_once ~seed ~ops () =
  let sim = Engine.create ~seed () in
  let latency =
    Dsm_net.Latency.Jittered
      { model = Dsm_net.Latency.Constant 1.0; mean_jitter = 2.0 }
  in
  let m = Machine.create sim ~n:4 ~latency () in
  let checker = Coherence.attach m in
  let d =
    Detector.create m
      ~config:
        { Config.default with Config.granularity = Config.Word }
      ()
  in
  let vars =
    Array.init 3 (fun i ->
        Machine.alloc_public m ~pid:(i + 1)
          ~name:(Printf.sprintf "v%d" i)
          ~len:4 ())
  in
  (* One mutex per variable, distinct from the data (cf. Locked_counter). *)
  let mutexes =
    Array.init 3 (fun i ->
        Machine.alloc_public m ~pid:(i + 1)
          ~name:(Printf.sprintf "m%d" i)
          ~len:1 ())
  in
  for pid = 0 to 3 do
    let g = Prng.create ~seed:(seed + (97 * pid)) in
    let plan =
      List.init ops (fun _ ->
          (Prng.int g 5, Prng.int g 3, Prng.int g 4, Prng.float g 15.0))
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
            | _ ->
                (* mutex-protected read-modify-write on one word *)
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
    Alcotest.failf
      "seed %d: a race signal's clocks are ordered under the dense reference"
      seed;
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
  }

let test_fuzz_completes_and_coherent () =
  List.iter
    (fun seed ->
      let fp = run_once ~seed ~ops:15 () in
      Alcotest.(check int)
        (Printf.sprintf "seed %d coherent" seed)
        0 fp.violations;
      Alcotest.(check bool)
        (Printf.sprintf "seed %d made progress" seed)
        true
        (fp.messages > 0 && fp.time > 0.))
    [ 11; 22; 33; 44; 55; 66; 77; 88 ]

let test_fuzz_deterministic () =
  List.iter
    (fun seed ->
      let a = run_once ~seed ~ops:12 () in
      let b = run_once ~seed ~ops:12 () in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d reproducible" seed)
        true (a = b))
    [ 5; 6; 7 ]

let test_fuzz_seed_sensitive () =
  let a = run_once ~seed:1 ~ops:12 () in
  let b = run_once ~seed:2 ~ops:12 () in
  Alcotest.(check bool) "different seeds differ" true (a <> b)

(* The epoch fast path must be invisible. These digests of the full
   fingerprint — including the rendered race set with both clocks of
   every signal — were recorded while the always-vector representation
   was still selectable and matched the epoch path bit for bit. *)
let digest fp =
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "%d|%s|%d|%d|%h|%d|%s" fp.races fp.race_csv fp.messages
          fp.words fp.time fp.violations
          (String.concat "," (List.map string_of_int fp.memory))))

let test_fuzz_epoch_dense_equivalent () =
  List.iter
    (fun (seed, want) ->
      Alcotest.(check string)
        (Printf.sprintf "seed %d fingerprint" seed)
        want
        (digest (run_once ~seed ~ops:14 ())))
    [
      (3, "3b752eb82082f2ab9b61b1cd560caca8");
      (14, "b7e7b2ffe02437ec6fbbf107b2d72899");
      (15, "2eb6fbfd082c16526f2106b30b2fc6f3");
      (92, "4af044e288f54de3bc6c8294646c5476");
      (65, "7e3a75f819848384d5d39a54f56dfedb");
      (35, "10bf2941e8de37f603dc563e375cea02");
    ]

(* On random traces every race signal must hold under the dense
   reference (checked inside [run_once]) and the run must be coherent. *)
let prop_epoch_dense_equivalent =
  QCheck.Test.make ~name:"epoch = dense on random traces" ~count:40
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 101 1_000_000))
    (fun seed -> (run_once ~seed ~ops:10 ()).violations = 0)

(* --- Sparse wire codec fuzz: round-trip + rejection. -------------- *)

module Vector_clock = Dsm_clocks.Vector_clock
module Codec = Dsm_clocks.Codec

(* The sparse payload travels as the sparse piggyback frame: two header
   words (tag 1, seq 0), then the payload. *)
let sparse_payload c =
  let w = Codec.encode_piggyback ~mode:Codec.Sparse ~seq:0 c in
  Array.sub w 2 (Array.length w - 2)

let decode_sparse w =
  fst (Codec.decode_piggyback ~expect_seq:0 (Array.append [| 1; 0 |] w))

let check_roundtrip name c =
  let w = sparse_payload c in
  let c' = decode_sparse w in
  Alcotest.(check (array int))
    (name ^ " round-trips")
    (Vector_clock.to_array c) (Vector_clock.to_array c')

let test_codec_sparse_directed () =
  (* empty *)
  let zero = Vector_clock.create ~n:8 in
  check_roundtrip "zero clock" zero;
  Alcotest.(check int)
    "zero clock ships headers only" 2
    (Array.length (sparse_payload zero));
  (* single entry *)
  let single = Vector_clock.create ~n:8 in
  Vector_clock.tick single ~me:3;
  check_roundtrip "single entry" single;
  Alcotest.(check int)
    "single entry ships one pair" 4
    (Array.length (sparse_payload single));
  (* promotion boundary: two live components (the clock flips from an
     epoch to dense storage; the codec must not care which side of the
     boundary it is on), then a few more *)
  let n = 32 in
  let at = Vector_clock.create ~n in
  Vector_clock.tick at ~me:5;
  Alcotest.(check bool) "one writer is an epoch" true
    (Vector_clock.is_epoch at);
  check_roundtrip "before promotion" at;
  let past = Vector_clock.copy at in
  let other = Vector_clock.create ~n in
  Vector_clock.tick other ~me:17;
  Vector_clock.merge_into ~into:past other;
  Alcotest.(check bool) "second writer promoted" false
    (Vector_clock.is_epoch past);
  check_roundtrip "past promotion" past;
  for pid = 0 to 3 do
    Vector_clock.tick past ~me:pid
  done;
  check_roundtrip "a few live components" past;
  (* max pid *)
  let last = Vector_clock.create ~n:64 in
  Vector_clock.tick last ~me:63;
  check_roundtrip "max-pid entry" last;
  (* rejection: truncated, padded, and corrupted buffers all raise *)
  let w = sparse_payload past in
  let rejects name w =
    match decode_sparse w with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: malformed buffer was accepted" name
  in
  rejects "truncated buffer" (Array.sub w 0 (Array.length w - 1));
  rejects "padded buffer" (Array.append w [| 0 |]);
  rejects "headerless buffer" [||];
  rejects "negative pair count" [| 8; -1 |];
  rejects "pair count beyond dim" [| 2; 3; 0; 1; 1; 1; 2; 1 |];
  rejects "unsorted pids" [| 8; 2; 5; 1; 3; 1 |];
  rejects "duplicate pids" [| 8; 2; 3; 1; 3; 1 |];
  rejects "pid out of range" [| 8; 1; 8; 1 |];
  rejects "non-positive tick" [| 8; 1; 2; 0 |]

(* Random clocks of random dimension and density round-trip losslessly,
   and the sparse wire never beats the Charron-Bost bound's shape: at
   most [2n + 2] words. *)
let prop_codec_sparse_roundtrip =
  QCheck.Test.make ~name:"sparse codec round-trips random clocks" ~count:200
    QCheck.(
      make
        ~print:(fun (n, seed) -> Printf.sprintf "(n=%d, seed=%d)" n seed)
        Gen.(pair (int_range 1 64) (int_range 0 1_000_000)))
    (fun (n, seed) ->
      let g = Prng.create ~seed in
      let a =
        Array.init n (fun _ ->
            if Prng.int g 4 = 0 then 1 + Prng.int g 1_000 else 0)
      in
      let c = Vector_clock.of_array a in
      let w = sparse_payload c in
      Array.length w <= (2 * n) + 2 && Test_util.vc_equal c (decode_sparse w))

(* --- Delta / varint / piggyback codec fuzz (ISSUE 8). -------------- *)

(* Random base clocks with a random subset of components advanced: the
   delta round-trips against the same base and its payload is exactly
   [2 + 2·changed] words — the size the wire accounting banks on. *)
let prop_codec_delta_roundtrip =
  QCheck.Test.make ~name:"delta codec round-trips random advances" ~count:200
    QCheck.(
      make
        ~print:(fun (n, seed) -> Printf.sprintf "(n=%d, seed=%d)" n seed)
        Gen.(pair (int_range 1 64) (int_range 0 1_000_000)))
    (fun (n, seed) ->
      let g = Prng.create ~seed in
      let a =
        Array.init n (fun _ ->
            if Prng.int g 3 = 0 then 1 + Prng.int g 1_000 else 0)
      in
      let base = Vector_clock.of_array a in
      let b = Array.copy a in
      let changed = ref 0 in
      Array.iteri
        (fun i x ->
          if Prng.int g 4 = 0 then begin
            b.(i) <- x + 1 + Prng.int g 50;
            incr changed
          end)
        a;
      let v = Vector_clock.of_array b in
      let w = Codec.encode_vector_delta ~since:base v in
      Array.length w = 2 + (2 * !changed)
      && Test_util.vc_equal v (Codec_ref.decode_vector_delta ~base w))

(* A delta decoded against the wrong base silently reconstructs the
   wrong clock — the reason the piggyback layer refuses deltas outside
   strict per-edge FIFO. The codec itself must at least reject a base of
   the wrong dimension. *)
let test_codec_delta_since_mismatch () =
  let base = Vector_clock.of_array [| 1; 2; 3 |] in
  let v = Vector_clock.of_array [| 1; 5; 3 |] in
  let w = Codec.encode_vector_delta ~since:base v in
  let decode_delta ~base w =
    fst (Codec.decode_piggyback ~expect_seq:0 ~base (Array.append [| 2; 0 |] w))
  in
  (match decode_delta ~base:(Vector_clock.create ~n:5) w with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "wrong-dimension base was accepted");
  (* same dimension, different value: decodes, but to the value implied
     by that base — never to the sender's clock *)
  let other = Vector_clock.of_array [| 9; 2; 9 |] in
  let v' = decode_delta ~base:other w in
  Alcotest.(check bool) "drifted base reconstructs a drifted clock" false
    (Test_util.vc_equal v v')

let prop_codec_varint_roundtrip_random =
  QCheck.Test.make ~name:"varint codec round-trips random clocks" ~count:200
    QCheck.(
      make
        ~print:(fun (n, seed) -> Printf.sprintf "(n=%d, seed=%d)" n seed)
        Gen.(pair (int_range 1 64) (int_range 0 1_000_000)))
    (fun (n, seed) ->
      let g = Prng.create ~seed in
      let a =
        Array.init n (fun _ ->
            match Prng.int g 4 with
            | 0 -> 0
            | 1 -> Prng.int g 128
            | 2 -> 128 + Prng.int g 100_000
            | _ -> Prng.int g 1_000_000_000)
      in
      let c = Vector_clock.of_array a in
      Test_util.vc_equal c
        (Codec_ref.decode_vector_varint (Codec.encode_vector_varint c)))

(* Self-framed piggybacks under every mode: the frame round-trips, the
   adaptive mode's frame is never larger than either self-contained
   form, and tampering with the tag of a delta frame is caught. *)
let prop_codec_piggyback_roundtrip =
  QCheck.Test.make ~name:"piggyback frames round-trip random clocks"
    ~count:200
    QCheck.(
      make
        ~print:(fun (n, seed) -> Printf.sprintf "(n=%d, seed=%d)" n seed)
        Gen.(pair (int_range 1 48) (int_range 0 1_000_000)))
    (fun (n, seed) ->
      let g = Prng.create ~seed in
      let a =
        Array.init n (fun _ ->
            if Prng.int g 3 = 0 then 1 + Prng.int g 1_000 else 0)
      in
      let since = Vector_clock.of_array a in
      let b = Array.copy a in
      Array.iteri
        (fun i x -> if Prng.int g 5 = 0 then b.(i) <- x + 1 + Prng.int g 9)
        a;
      let v = Vector_clock.of_array b in
      let seq = Prng.int g 1_000 in
      let dense = Codec.encode_piggyback ~mode:Codec.Dense ~seq v in
      let sparse = Codec.encode_piggyback ~mode:Codec.Sparse ~seq v in
      let adaptive = Codec.encode_piggyback ~mode:Codec.Delta ~seq ~since v in
      let ok_roundtrip w =
        let v', s = Codec.decode_piggyback ~expect_seq:seq ~base:since w in
        Test_util.vc_equal v v' && s = seq
      in
      ok_roundtrip dense && ok_roundtrip sparse && ok_roundtrip adaptive
      && Array.length adaptive <= Array.length dense
      && Array.length adaptive <= Array.length sparse)

let () =
  Alcotest.run "fuzz"
    [
      ( "machine",
        [
          Alcotest.test_case "completes + coherent" `Slow test_fuzz_completes_and_coherent;
          Alcotest.test_case "deterministic" `Slow test_fuzz_deterministic;
          Alcotest.test_case "seed sensitive" `Quick test_fuzz_seed_sensitive;
        ] );
      ( "clock-rep",
        [
          Alcotest.test_case "epoch = dense (directed seeds)" `Quick
            test_fuzz_epoch_dense_equivalent;
          QCheck_alcotest.to_alcotest prop_epoch_dense_equivalent;
        ] );
      ( "codec-sparse",
        [
          Alcotest.test_case "directed round-trips + rejection" `Quick
            test_codec_sparse_directed;
          QCheck_alcotest.to_alcotest prop_codec_sparse_roundtrip;
        ] );
      ( "codec-delta",
        [
          Alcotest.test_case "since mismatch" `Quick
            test_codec_delta_since_mismatch;
          QCheck_alcotest.to_alcotest prop_codec_delta_roundtrip;
          QCheck_alcotest.to_alcotest prop_codec_varint_roundtrip_random;
          QCheck_alcotest.to_alcotest prop_codec_piggyback_roundtrip;
        ] );
    ]
