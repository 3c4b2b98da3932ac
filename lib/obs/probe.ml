type event =
  (* engine *)
  | Engine_step of { time : float }
  | Engine_choice of { time : float; ready : int; chosen : int }
  | Engine_quiescence of { time : float; events : int; outcome : string }
  (* fabric *)
  | Net_send of {
      time : float;
      src : int;
      dst : int;
      words : int;
      wire_words : int;
      clock_words : int;
      arrival : float;
    }
  | Net_deliver of { time : float; src : int; dst : int }
  | Net_drop of { time : float; src : int; dst : int }
  | Net_duplicate of { time : float; src : int; dst : int }
  | Net_reorder of { time : float; src : int; dst : int }
  (* rdma machine *)
  | Op_begin of { time : float; pid : int; op : int; kind : string; target : int }
  | Op_end of { time : float; pid : int; op : int; kind : string }
  | Msg_sent of { time : float; src : int; dst : int; msg : Msg.t }
  | Msg_delivered of { time : float; src : int; dst : int; msg : Msg.t }
  | Lock_acquired of {
      time : float;
      pid : int;
      node : int;
      offset : int;
      len : int;
    }
  | Lock_released of {
      time : float;
      pid : int;
      node : int;
      offset : int;
      len : int;
    }
  | Retransmit of { time : float; src : int; dst : int; seq : int }
  | Batch_flush of {
      time : float;
      pid : int;
      node : int;
      kind : string; (* "put" | "get" *)
      parts : int;
      words : int;
    }
  | Rmw of {
      time : float;
      node : int;
      origin : int;
      offset : int;
      len : int;
      kind : string; (* "fetch_add" | "cas" | "acc:<op>" *)
    }
  | Coherence_violation of {
      time : float;
      node : int;
      offset : int;
      origin : int;
    }
  (* detector *)
  | Detector_check of { time : float; pid : int; kind : string; fast_path : bool }
  | Race_signal of {
      time : float;
      pid : int;
      node : int;
      offset : int;
      len : int;
      kind : string; (* "read" | "write" | "atomic-update" *)
      against : string; (* "general" | "write" *)
    }
  | Clock_merge of { time : float; pid : int }
  (* explore *)
  | Run_begin of { run : int }
  | Run_end of { run : int; events : int; violating : bool }
  | Violation of { run : int; invariant : string }
  | Domain_claim of { domain : int; first_run : int; count : int }
  | Dpor_prune of { point : int; branch : int }
  | Minimize_step of { len : int; violating : bool }

type t = { mutable on : bool; mutable sinks : (event -> unit) array }

let create () = { on = false; sinks = [||] }

let attach t sink =
  t.sinks <- Array.append t.sinks [| sink |];
  t.on <- true

let detach_all t =
  t.sinks <- [||];
  t.on <- false

let emit t ev =
  let sinks = t.sinks in
  for i = 0 to Array.length sinks - 1 do
    sinks.(i) ev
  done

(* Dense per-class numbering: [class_id] compiles to a tag dispatch, so
   per-class filters (the flight recorder's exclude list) can be an
   array load on the hot path instead of a string comparison. *)
let class_id = function
  | Engine_step _ -> 0
  | Engine_choice _ -> 1
  | Engine_quiescence _ -> 2
  | Net_send _ -> 3
  | Net_deliver _ -> 4
  | Net_drop _ -> 5
  | Net_duplicate _ -> 6
  | Net_reorder _ -> 7
  | Op_begin _ -> 8
  | Op_end _ -> 9
  | Msg_sent _ -> 10
  | Msg_delivered _ -> 11
  | Lock_acquired _ -> 12
  | Lock_released _ -> 13
  | Retransmit _ -> 14
  | Batch_flush _ -> 15
  | Rmw _ -> 16
  | Coherence_violation _ -> 17
  | Detector_check _ -> 18
  | Race_signal _ -> 19
  | Clock_merge _ -> 20
  | Run_begin _ -> 21
  | Run_end _ -> 22
  | Violation _ -> 23
  | Domain_claim _ -> 24
  | Dpor_prune _ -> 25
  | Minimize_step _ -> 26

let class_names =
  [|
    "engine.step";
    "engine.choice";
    "engine.quiescence";
    "net.send";
    "net.deliver";
    "net.drop";
    "net.duplicate";
    "net.reorder";
    "rdma.op_begin";
    "rdma.op_end";
    "rdma.msg_sent";
    "rdma.msg_delivered";
    "rdma.lock_acquired";
    "rdma.lock_released";
    "rdma.retransmit";
    "rdma.batch_flush";
    "rdma.rmw";
    "coherence.violation";
    "detector.check";
    "detector.race_signal";
    "detector.clock_merge";
    "explore.run_begin";
    "explore.run_end";
    "explore.violation";
    "explore.domain_claim";
    "explore.dpor_prune";
    "explore.minimize_step";
  |]

let class_count = Array.length class_names
let name ev = class_names.(class_id ev)
