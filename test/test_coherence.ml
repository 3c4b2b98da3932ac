(* Tests for the memory-coherence checker: the substrate must be coherent
   on every workload, and the checker must catch injected corruption. *)

open Dsm_sim
open Dsm_pgas
module Machine = Dsm_rdma.Machine
module Coherence = Dsm_rdma.Coherence
module Detector = Dsm_core.Detector

let expect_completed m =
  match Machine.run m with
  | Engine.Completed -> ()
  | Engine.Blocked k -> Alcotest.failf "blocked (%d)" k
  | _ -> Alcotest.fail "did not complete"

let expect_clean name checker =
  Alcotest.(check bool)
    (name ^ ": some reads were checked")
    true
    (Coherence.checked_words checker > 0);
  (match Coherence.violations checker with
  | [] -> ()
  | v :: _ ->
      Alcotest.failf "%s: %s" name
        (Format.asprintf "%a" Coherence.pp_violation v));
  Alcotest.(check bool) (name ^ ": clean") true (Coherence.is_clean checker)

let with_machine ?(n = 4) f =
  let sim = Engine.create () in
  let m = Machine.create sim ~n ~latency:(Dsm_net.Latency.Constant 1.0) () in
  let checker = Coherence.attach m in
  f m;
  expect_completed m;
  checker

let test_coherent_on_random_workload () =
  let checker =
    with_machine (fun m ->
        let d = Detector.create m () in
        Dsm_workload.Random_access.setup (Env.checked d)
          { Dsm_workload.Random_access.default with ops_per_proc = 40; seed = 4 })
  in
  expect_clean "random" checker

let test_coherent_on_stencil () =
  let checker =
    with_machine (fun m ->
        let env = Env.plain m in
        let c = Collectives.create env in
        ignore
          (Dsm_workload.Stencil.setup env ~collectives:c
             Dsm_workload.Stencil.default))
  in
  expect_clean "stencil" checker

let test_coherent_on_atomics () =
  let checker =
    with_machine (fun m ->
        let counter = Machine.alloc_public m ~pid:0 ~len:1 () in
        Machine.spawn_all m (fun p ->
            for _ = 1 to 10 do
              ignore
                (Machine.fetch_add p ~target:counter.Dsm_memory.Addr.base
                   ~delta:1 ())
            done;
            (* and read it back *)
            let buf =
              Machine.alloc_private m ~pid:(Machine.pid p) ~len:1 ()
            in
            Machine.get p ~src:counter ~dst:buf ()))
  in
  expect_clean "atomics" checker

let test_coherent_under_figure3_contention () =
  let checker =
    with_machine ~n:3 (fun m ->
        let src1 = Machine.alloc_public m ~pid:1 ~len:4 () in
        let dst2 = Machine.alloc_public m ~pid:2 ~len:4 () in
        Machine.spawn m ~pid:2 (fun p -> Machine.get p ~src:src1 ~dst:dst2 ());
        Machine.spawn m ~pid:0 (fun p ->
            Machine.compute p 0.5;
            let buf = Machine.alloc_private m ~pid:0 ~len:4 () in
            Machine.put p ~src:buf ~dst:dst2 ();
            (* read back through the NIC after the dust settles *)
            Machine.compute p 10.0;
            let back = Machine.alloc_private m ~pid:0 ~len:4 () in
            Machine.get p ~src:dst2 ~dst:back ()))
  in
  expect_clean "figure 3 contention" checker

let test_adopts_out_of_band_initialization () =
  let offset = ref 0 in
  let checker =
    with_machine ~n:2 (fun m ->
        let area = Machine.alloc_public m ~pid:1 ~len:2 () in
        offset := area.Dsm_memory.Addr.base.offset;
        (* initialized before the run, out of band *)
        Dsm_memory.Node_memory.write (Machine.node m 1) area [| 8; 9 |];
        Machine.spawn m ~pid:0 (fun p ->
            let buf = Machine.alloc_private m ~pid:0 ~len:2 () in
            Machine.get p ~src:area ~dst:buf ()))
  in
  Alcotest.(check bool) "clean" true (Coherence.is_clean checker);
  (* no write reached the words, so the shadow holds them only if the
     read adopted what it saw *)
  Alcotest.(check (list (option int))) "both words adopted" [ Some 8; Some 9 ]
    (List.init 2 (fun i ->
         Coherence.expected checker ~node:1 ~offset:(!offset + i)))

(* A get whose destination is public writes the getter's own public
   memory: a later read of that word must see the landed value, not the
   put that preceded the landing. *)
let test_get_landing_is_a_write () =
  let observed = ref 0 in
  let checker =
    with_machine ~n:3 (fun m ->
        let a = Machine.alloc_public m ~pid:0 ~len:1 () in
        let b = Machine.alloc_public m ~pid:1 ~len:1 () in
        Dsm_memory.Node_memory.write (Machine.node m 1) b [| 9 |];
        Machine.spawn m ~pid:2 (fun p ->
            let five = Machine.alloc_private m ~pid:2 ~len:1 () in
            Dsm_memory.Node_memory.write (Machine.node m 2) five [| 5 |];
            Machine.put p ~src:five ~dst:a ();
            Machine.compute p 20.0;
            let back = Machine.alloc_private m ~pid:2 ~len:1 () in
            Machine.get p ~src:a ~dst:back ();
            observed :=
              (Dsm_memory.Node_memory.read (Machine.node m 2) back).(0));
        Machine.spawn m ~pid:0 (fun p ->
            Machine.compute p 10.0;
            Machine.get p ~src:b ~dst:a ()))
  in
  Alcotest.(check int) "P2 reads the landed value" 9 !observed;
  expect_clean "get landing" checker

let test_detects_injected_corruption () =
  let sim = Engine.create () in
  let m = Machine.create sim ~n:2 ~latency:(Dsm_net.Latency.Constant 1.0) () in
  let checker = Coherence.attach m in
  let area = Machine.alloc_public m ~pid:1 ~len:1 () in
  Machine.spawn m ~pid:0 (fun p ->
      let buf = Machine.alloc_private m ~pid:0 ~len:1 () in
      Dsm_memory.Node_memory.write (Machine.node m 0) buf [| 5 |];
      Machine.put p ~src:buf ~dst:area ();
      Machine.compute p 10.0;
      let back = Machine.alloc_private m ~pid:0 ~len:1 () in
      Machine.get p ~src:area ~dst:back ());
  (* A gremlin flips the memory cell behind the NIC's back mid-run. *)
  Engine.schedule sim ~delay:5.0 (fun () ->
      Dsm_memory.Node_memory.write (Machine.node m 1) area [| 666 |]);
  expect_completed m;
  match Coherence.violations checker with
  | [ v ] ->
      Alcotest.(check int) "expected last write" 5 v.Coherence.expected;
      Alcotest.(check int) "observed corruption" 666 v.Coherence.observed;
      Alcotest.(check int) "at the right node" 1 v.Coherence.node
  | l -> Alcotest.failf "expected exactly one violation, got %d" (List.length l)

let () =
  Alcotest.run "coherence"
    [
      ( "clean-substrate",
        [
          Alcotest.test_case "random workload" `Quick test_coherent_on_random_workload;
          Alcotest.test_case "stencil" `Quick test_coherent_on_stencil;
          Alcotest.test_case "atomics" `Quick test_coherent_on_atomics;
          Alcotest.test_case "figure 3 contention" `Quick test_coherent_under_figure3_contention;
          Alcotest.test_case "out-of-band init" `Quick test_adopts_out_of_band_initialization;
          Alcotest.test_case "get landing is a write" `Quick
            test_get_landing_is_a_write;
        ] );
      ( "detection",
        [ Alcotest.test_case "injected corruption" `Quick test_detects_injected_corruption ] );
    ]
