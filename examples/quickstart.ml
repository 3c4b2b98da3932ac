(* Quickstart: build a 3-node DSM machine, run the paper's Figure 5a
   scenario (two unsynchronized puts to the same shared variable), and let
   the detector signal the race.

   Run with: dune exec examples/quickstart.exe *)

open Dsm_sim
open Dsm_memory
open Dsm_core
module Machine = Dsm_rdma.Machine

let () =
  (* 1. A simulated 3-node RDMA machine. *)
  let sim = Engine.create ~seed:2024 () in
  let machine =
    Machine.create sim ~n:3 ~latency:(Dsm_net.Latency.Constant 1.0) ()
  in

  (* 2. Attach the race detector (the paper's Algorithms 1-5). *)
  let detector = Detector.create machine () in

  (* 3. Declare a shared variable "a" in P2's public memory: the job the
     paper assigns to the PGAS compiler. *)
  let a = Detector.alloc_shared detector ~pid:2 ~name:"a" ~len:1 () in

  (* Collect the message timeline from the probe bus for a space-time
     rendering. *)
  let arrows = Dsm_experiments.Harness.collect_arrows (Engine.probe sim) in

  (* 4. Two processes put to [a] with no synchronization: Figure 5a. *)
  let writer pid value =
    Machine.spawn machine ~pid (fun p ->
        let buf = Machine.alloc_private machine ~pid ~len:1 () in
        Node_memory.write (Machine.node machine pid) buf [| value |];
        Detector.put detector p ~src:buf ~dst:a)
  in
  writer 0 111;
  writer 1 222;

  (* 5. Run and report. *)
  (match Machine.run machine with
  | Engine.Completed -> ()
  | _ -> prerr_endline "warning: simulation did not complete");

  Format.printf "--- Quickstart: Figure 5a (two concurrent puts) ---@.@.";
  Format.printf "%s@."
    (Dsm_trace.Spacetime.render ~n:3 ~arrows:(arrows ()) ~marks:[] ());
  Format.printf "final value of a = %d (last writer wins)@.@."
    (Node_memory.read (Machine.node machine 2) a).(0);
  Format.printf "%a@." Report.pp_summary (Detector.report detector);
  Format.printf
    "@.The race is signaled, not fatal (§4.4): the program ran to completion.@."
