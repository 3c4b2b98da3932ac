(* MPI-2 one-sided windows on the simulated DSM machine.

   A four-rank neighbour exchange between fences (all clean), then the
   same program with one bug of each kind: an RMA call outside the epoch
   (caught by the MARMOT-style usage checker) and two conflicting puts
   inside a legal epoch (caught by the paper's clock-based detector).
   Last, a passive-target counter: each rank locks rank 0's window and
   accumulates into it, with no fence around the updates (clean too).

   Run with: dune exec examples/mpi_windows.exe *)

open Dsm_sim
open Dsm_pgas
open Dsm_mpiwin
module Machine = Dsm_rdma.Machine
module Detector = Dsm_core.Detector
module Report = Dsm_core.Report

let run name program =
  let sim = Engine.create () in
  let machine = Machine.create sim ~n:4 () in
  let detector = Detector.create machine () in
  let env = Env.checked detector in
  let collectives = Collectives.create env in
  let w = Window.create env ~collectives ~name:"win" ~len_per_rank:4 in
  Machine.spawn_all machine (fun p -> program w p (Machine.pid p));
  (match Machine.run machine with
  | Engine.Completed -> ()
  | _ -> prerr_endline "warning: simulation did not complete");
  Format.printf "%-28s usage violations: %d   race signals: %d@." name
    (List.length (Window.usage_violations w))
    (Report.count (Detector.report detector));
  List.iter
    (fun v -> Format.printf "  %a@." Window.pp_usage_violation v)
    (Window.usage_violations w);
  List.iteri
    (fun i r -> if i < 2 then Format.printf "  %a@." Report.pp_race r)
    (Report.races (Detector.report detector))

let clean w p pid =
  Window.fence w p;
  Window.put w p ~rank:((pid + 1) mod 4) ~offset:0 (pid * 11);
  Window.fence w p;
  ignore (Window.get w p ~rank:pid ~offset:0);
  Window.fence w p

let epoch_bug w p pid =
  (* rank 3 forgets that RMA is only legal between fences *)
  if pid = 3 then Window.put w p ~rank:0 ~offset:1 99;
  clean w p pid

let race_bug w p pid =
  Window.fence w p;
  (* ranks 1 and 2 both target rank 0's word 2 in the same epoch *)
  if pid = 1 || pid = 2 then Window.put w p ~rank:0 ~offset:2 pid;
  Window.fence w p

(* Passive target: the lock, not a fence, opens each rank's access
   epoch on rank 0, and accumulate is atomic, so the updates neither
   break the usage rules nor race. A closing fence epoch lets rank 0
   read the total. *)
let total = ref 0

let passive_counter w p pid =
  Window.lock w p ~rank:0;
  Window.accumulate w p ~rank:0 ~offset:3 ~delta:(pid + 1);
  Window.unlock w p ~rank:0;
  Window.fence w p;
  if pid = 0 then total := Window.get w p ~rank:0 ~offset:3;
  Window.fence w p

let () =
  Format.printf "--- MPI-2 windows: two checkers, two bug classes ---@.@.";
  run "correct exchange" clean;
  run "RMA outside the epoch" epoch_bug;
  run "race inside a legal epoch" race_bug;
  run "passive-target counter" passive_counter;
  Format.printf "  rank 0's counter: %d (= 1 + 2 + 3 + 4)@." !total;
  Format.printf
    "@.The usage checker audits the synchronization API; the clocks audit@.\
     the accesses it allows. A debugged program passes both.@."
