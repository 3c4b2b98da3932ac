type event =
  (* engine *)
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

let emit t ev =
  let sinks = t.sinks in
  for i = 0 to Array.length sinks - 1 do
    sinks.(i) ev
  done
