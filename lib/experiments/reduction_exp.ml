(* E10: one-sided reduction (§5.2) vs. gather collective. *)

open Dsm_stats
open Dsm_pgas
module Machine = Dsm_rdma.Machine
module Detector = Dsm_core.Detector
module Report = Dsm_core.Report

let contribution pid = pid + 1

let expected n = n * (n + 1) / 2

let run_gather ~n =
  let m = Harness.fresh_machine ~n ~latency:Dsm_net.Latency.infiniband_like () in
  let env = Env.plain m in
  let c = Collectives.create env in
  let result = ref 0 in
  Machine.spawn_all m (fun p ->
      let pid = Machine.pid p in
      match Collectives.reduce_gather c p ~root:0 ~value:(contribution pid) with
      | Some sum -> result := sum
      | None -> ());
  Harness.run_to_completion m;
  (!result, Dsm_sim.Engine.now (Machine.sim m), Machine.fabric_messages m)

(* Counts into [others] every message that is not a get the root sends
   or its reply: §5.2's "no participation of the others" wants none. *)
let run_onesided ~others ~n =
  let m = Harness.fresh_machine ~n ~latency:Dsm_net.Latency.infiniband_like () in
  let env = Env.plain m in
  let slots =
    Shared_array.create env ~name:"contrib" ~len:n ~layout:Shared_array.Cyclic ()
  in
  (* Contributions pre-published: the reduction itself involves only the
     root. *)
  for i = 0 to n - 1 do
    Shared_array.poke slots i (contribution i)
  done;
  let c = Collectives.create env in
  Dsm_obs.Probe.attach (Dsm_sim.Engine.probe (Machine.sim m)) Dsm_obs.Probe.msg
    (function
    | Dsm_obs.Probe.Msg_sent { src = 0; msg = Get _; _ }
    | Msg_sent { dst = 0; msg = Get_reply _; _ } ->
        ()
    | Msg_sent _ -> incr others
    | _ -> ());
  let result = ref 0 in
  Machine.spawn m ~pid:0 (fun p ->
      result := Collectives.reduce_onesided_sum c p slots);
  Harness.run_to_completion m;
  (!result, Dsm_sim.Engine.now (Machine.sim m), Machine.fabric_messages m)

let verdict ~synchronized =
  let n = 4 in
  let m = Harness.fresh_machine ~n () in
  let d = Detector.create m () in
  let env = Env.checked d in
  let slots =
    Shared_array.create env ~name:"contrib" ~len:n ~layout:Shared_array.Cyclic ()
  in
  let c = Collectives.create env in
  Machine.spawn_all m (fun p ->
      let pid = Machine.pid p in
      Shared_array.write slots p pid (contribution pid);
      if synchronized then Collectives.barrier c p;
      if pid = 0 then begin
        if not synchronized then Machine.compute p 1.0;
        ignore (Collectives.reduce_onesided_sum c p slots)
      end);
  Harness.run_to_completion m;
  Report.count (Detector.report d)

let e10 ppf =
  let table =
    Table.create
      ~headers:
        [ "n"; "reduction"; "sum ok"; "completed at"; "messages" ]
  in
  let others = ref 0 in
  List.iter
    (fun n ->
      let gsum, gt, gm = run_gather ~n in
      let osum, ot, om = run_onesided ~others ~n in
      Table.add_row table
        [
          string_of_int n;
          "gather collective";
          (if gsum = expected n then "yes" else "NO");
          Harness.fmt_us gt;
          string_of_int gm;
        ];
      Table.add_row table
        [
          string_of_int n;
          "one-sided (§5.2)";
          (if osum = expected n then "yes" else "NO");
          Harness.fmt_us ot;
          string_of_int om;
        ])
    [ 2; 4; 8; 16; 32 ];
  Format.fprintf ppf "%s@." (Table.render table);
  Format.fprintf ppf
    "The one-sided reduction needs no barrier, no slot pushes and no code on@.\
     the other processes: 2n messages, one get and its reply per slot (the@.\
     root's own slot through a loopback get), against the collective's@.\
     gather puts plus two full barriers. Its serial gets cost latency at@.\
     the root, which is the §5.2 trade-off made measurable.@.@.";
  let sync = verdict ~synchronized:true in
  let unsync = verdict ~synchronized:false in
  let t2 = Table.create ~headers:[ "one-sided reduce usage"; "race signals"; "verdict" ] in
  Table.add_row t2
    [
      "after a barrier";
      string_of_int sync;
      (if sync = 0 then "safe (PASS)" else "FAIL");
    ];
  Table.add_row t2
    [
      "mid-computation";
      string_of_int unsync;
      (if unsync > 0 then "flagged (PASS)" else "FAIL");
    ];
  Format.fprintf ppf
    "%s@.no participation of the others (only P0's gets and their replies): \
     %s@."
    (Table.render t2)
    (if !others = 0 then "PASS" else "FAIL")

let experiments =
  [
    {
      Harness.id = "E10";
      paper_artifact = "§5.2: non-collective one-sided reduction";
      run = e10;
    };
  ]
