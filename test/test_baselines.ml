(* Tests for dsm_baselines: lockset analysis and scoring. *)

open Dsm_memory
open Dsm_trace
open Dsm_baselines

let reg ?(pid = 0) offset len = Addr.region ~pid ~space:Addr.Public ~offset ~len

let acc r ~t ~pid ~kind ~target = Recorder.access r ~time:t ~pid ~kind ~target

(* ---------- lockset ---------- *)

let test_lockset_clean_when_disciplined () =
  let r = Recorder.create ~n:2 () in
  let _ = Recorder.lock_acquire r ~time:1. ~pid:0 ~lock:"m" in
  let _ = acc r ~t:2. ~pid:0 ~kind:Event.Write ~target:(reg 0 1) in
  let _ = Recorder.lock_release r ~time:3. ~pid:0 ~lock:"m" in
  let _ = Recorder.lock_acquire r ~time:4. ~pid:1 ~lock:"m" in
  let _ = acc r ~t:5. ~pid:1 ~kind:Event.Write ~target:(reg 0 1) in
  let _ = Recorder.lock_release r ~time:6. ~pid:1 ~lock:"m" in
  let t = Recorder.finish r in
  Alcotest.(check (list (pair int int))) "consistent lock: clean" []
    (Lockset.racy_words t)

let test_lockset_flags_unprotected_write_share () =
  let r = Recorder.create ~n:2 () in
  let _ = acc r ~t:1. ~pid:0 ~kind:Event.Write ~target:(reg 0 1) in
  let _ = acc r ~t:2. ~pid:1 ~kind:Event.Write ~target:(reg 0 1) in
  let t = Recorder.finish r in
  Alcotest.(check (list (pair int int))) "flagged" [ (0, 0) ]
    (Lockset.racy_words t)

let test_lockset_exclusive_phase_tolerated () =
  (* A single process may access without locks: Exclusive state. *)
  let r = Recorder.create ~n:2 () in
  let _ = acc r ~t:1. ~pid:0 ~kind:Event.Write ~target:(reg 0 1) in
  let _ = acc r ~t:2. ~pid:0 ~kind:Event.Write ~target:(reg 0 1) in
  let _ = acc r ~t:3. ~pid:0 ~kind:Event.Read ~target:(reg 0 1) in
  let t = Recorder.finish r in
  Alcotest.(check (list (pair int int))) "single owner clean" []
    (Lockset.racy_words t)

let test_lockset_read_share_tolerated () =
  (* Writes by one process, later reads by others without locks: the
     Shared (read-only) state does not report. *)
  let r = Recorder.create ~n:3 () in
  let _ = acc r ~t:1. ~pid:0 ~kind:Event.Write ~target:(reg 0 1) in
  let _ = acc r ~t:2. ~pid:1 ~kind:Event.Read ~target:(reg 0 1) in
  let _ = acc r ~t:3. ~pid:2 ~kind:Event.Read ~target:(reg 0 1) in
  let t = Recorder.finish r in
  Alcotest.(check (list (pair int int))) "read sharing clean" []
    (Lockset.racy_words t)

let test_lockset_blind_to_barriers () =
  (* Barrier-synchronized alternation is perfectly ordered (no race in
     ground truth) but violates the locking discipline: lockset's classic
     false positive. *)
  let r = Recorder.create ~n:2 () in
  let _ = acc r ~t:1. ~pid:0 ~kind:Event.Write ~target:(reg 0 1) in
  let _ = Recorder.barrier_enter r ~time:2. ~pid:0 ~generation:0 in
  let _ = Recorder.barrier_enter r ~time:2. ~pid:1 ~generation:0 in
  let _ = Recorder.barrier_exit r ~time:3. ~pid:0 ~generation:0 in
  let _ = Recorder.barrier_exit r ~time:3. ~pid:1 ~generation:0 in
  let _ = acc r ~t:4. ~pid:1 ~kind:Event.Write ~target:(reg 0 1) in
  let t = Recorder.finish r in
  Alcotest.(check int) "ground truth: ordered" 0 (List.length (Trace.races t));
  Alcotest.(check (list (pair int int))) "lockset: false positive" [ (0, 0) ]
    (Lockset.racy_words t)

let test_lockset_partial_lock_intersection () =
  (* Protected by {m1,m2} then by {m2} only: intersection stays {m2},
     still clean; then by {m1} only: empties, reported. *)
  let r = Recorder.create ~n:3 () in
  let _ = Recorder.lock_acquire r ~time:0. ~pid:0 ~lock:"m1" in
  let _ = Recorder.lock_acquire r ~time:0.1 ~pid:0 ~lock:"m2" in
  let _ = acc r ~t:1. ~pid:0 ~kind:Event.Write ~target:(reg 0 1) in
  let _ = Recorder.lock_release r ~time:1.2 ~pid:0 ~lock:"m2" in
  let _ = Recorder.lock_release r ~time:1.3 ~pid:0 ~lock:"m1" in
  let _ = Recorder.lock_acquire r ~time:2. ~pid:1 ~lock:"m2" in
  let _ = acc r ~t:2.5 ~pid:1 ~kind:Event.Write ~target:(reg 0 1) in
  let _ = Recorder.lock_release r ~time:2.6 ~pid:1 ~lock:"m2" in
  let clean_so_far = Lockset.racy_words (Recorder.finish r) in
  let _ = Recorder.lock_acquire r ~time:3. ~pid:2 ~lock:"m1" in
  let _ = acc r ~t:3.5 ~pid:2 ~kind:Event.Write ~target:(reg 0 1) in
  let _ = Recorder.lock_release r ~time:3.6 ~pid:2 ~lock:"m1" in
  let t = Recorder.finish r in
  Alcotest.(check (list (pair int int))) "m2 common: clean" [] clean_so_far;
  Alcotest.(check (list (pair int int))) "intersection emptied" [ (0, 0) ]
    (Lockset.racy_words t)

let test_lockset_verdict_carries_event () =
  let r = Recorder.create ~n:2 () in
  let _ = acc r ~t:1. ~pid:0 ~kind:Event.Write ~target:(reg 4 1) in
  let e = acc r ~t:2. ~pid:1 ~kind:Event.Write ~target:(reg 4 1) in
  let t = Recorder.finish r in
  match Lockset.analyze t with
  | [ v ] ->
      Alcotest.(check int) "violating event" e v.Lockset.first_violation;
      Alcotest.(check (pair int int)) "word" (0, 4) v.Lockset.word
  | l -> Alcotest.failf "expected one verdict, got %d" (List.length l)

(* ---------- scoring ---------- *)

let test_confusion_counts () =
  let truth = [ (0, 1); (0, 2); (1, 5) ] in
  let flagged = [ (0, 1); (1, 5); (2, 9) ] in
  let c = Scoring.confusion ~truth ~flagged in
  Alcotest.(check int) "tp" 2 c.Scoring.true_pos;
  Alcotest.(check int) "fp" 1 c.Scoring.false_pos;
  Alcotest.(check int) "fn" 1 c.Scoring.false_neg;
  Alcotest.(check (float 1e-9)) "precision" (2. /. 3.) c.Scoring.precision;
  Alcotest.(check (float 1e-9)) "recall" (2. /. 3.) c.Scoring.recall

let test_confusion_empty_cases () =
  let c = Scoring.confusion ~truth:[] ~flagged:[] in
  Alcotest.(check (float 1e-9)) "precision 1" 1.0 c.Scoring.precision;
  Alcotest.(check (float 1e-9)) "recall 1" 1.0 c.Scoring.recall;
  Alcotest.(check (float 1e-9)) "f1 1" 1.0 (Scoring.f1 c)

let test_ground_truth_words () =
  let r = Recorder.create ~n:2 () in
  let _ = acc r ~t:1. ~pid:0 ~kind:Event.Write ~target:(reg 0 4) in
  let _ = acc r ~t:2. ~pid:1 ~kind:Event.Write ~target:(reg 2 4) in
  let t = Recorder.finish r in
  Alcotest.(check (list (pair int int))) "overlap words" [ (0, 2); (0, 3) ]
    (Scoring.ground_truth_words t)

let () =
  Alcotest.run "baselines"
    [
      ( "lockset",
        [
          Alcotest.test_case "disciplined clean" `Quick test_lockset_clean_when_disciplined;
          Alcotest.test_case "unprotected flagged" `Quick test_lockset_flags_unprotected_write_share;
          Alcotest.test_case "exclusive phase" `Quick test_lockset_exclusive_phase_tolerated;
          Alcotest.test_case "read sharing" `Quick test_lockset_read_share_tolerated;
          Alcotest.test_case "blind to barriers" `Quick test_lockset_blind_to_barriers;
          Alcotest.test_case "lock intersection" `Quick test_lockset_partial_lock_intersection;
          Alcotest.test_case "verdict detail" `Quick test_lockset_verdict_carries_event;
        ] );
      ( "scoring",
        [
          Alcotest.test_case "confusion" `Quick test_confusion_counts;
          Alcotest.test_case "empty cases" `Quick test_confusion_empty_cases;
          Alcotest.test_case "ground truth words" `Quick test_ground_truth_words;
        ] );
    ]
