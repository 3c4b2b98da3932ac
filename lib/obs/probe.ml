include Probe_types

type classes = int

(* Class [i] is bit [1 lsl i]; [index] maps an event to its [i]. *)
let engine = 1
let net = 2
let op = 4
let msg = 8
let lock = 16
let rmw = 32
let apply = 64
let coherence = 128
let check = 256
let race = 512
let run_begin = 1024
let explore = 2048
let n_classes = 12
let all = (1 lsl n_classes) - 1

let index = function
  | Engine_choice _ | Engine_quiescence _ -> 0
  | Net_send _ | Net_deliver _ | Net_drop _ | Net_duplicate _ | Net_reorder _
  | Retransmit _ ->
      1
  | Op_begin _ | Op_end _ | Batch_flush _ -> 2
  | Msg_sent _ | Msg_delivered _ -> 3
  | Lock_acquired _ | Lock_released _ -> 4
  | Rmw _ -> 5
  | Write_applied _ | Read_served _ | Atomic_applied _ | Acc_applied _ -> 6
  | Coherence_violation _ -> 7
  | Detector_check _ | Clock_merge _ -> 8
  | Race_signal _ -> 9
  | Run_begin _ -> 10
  | Run_end _ | Violation _ | Domain_claim _ | Dpor_prune _ | Minimize_step _ ->
      11

type t = { mutable on : classes; sinks : (event -> unit) array array }

let create () = { on = 0; sinks = Array.make n_classes [||] }

let attach t classes sink =
  if classes land all = 0 then invalid_arg "Probe.attach: no class";
  for i = 0 to n_classes - 1 do
    if classes land (1 lsl i) <> 0 then
      t.sinks.(i) <- Array.append t.sinks.(i) [| sink |]
  done;
  t.on <- t.on lor (classes land all)

let emit t ev =
  let sinks = t.sinks.(index ev) in
  for i = 0 to Array.length sinks - 1 do
    sinks.(i) ev
  done
