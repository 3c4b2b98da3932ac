(* Chrome/Perfetto trace-event JSON builder.

   One lane (trace-event "process") per simulated node, one per
   scheduler, one per explorer domain. Simulated time is already in
   microseconds, which is exactly the trace-event [ts] unit, so
   timestamps pass through unscaled.

   Events used:
   - "X" complete slices — op lifetimes (Op_begin..Op_end), lock-held
     spans (Lock_acquired..Lock_released), message send/deliver stubs;
   - "s"/"f" flow events — protocol-message arrows, one id per
     Msg_sent/Msg_delivered pair as [Msg.pending] pairs them (FIFO per
     (src, dst, label), the same table the space-time diagram's arrows
     read); a delivery with no queued send draws nothing;
   - "i" instant events — race signals, coherence violations, fault
     injections (drop/dup/reorder), retransmits, scheduler choices;
   - "M" metadata — lazy process_name records, emitted once per lane. *)

module Int_tbl = Hashtbl.Make (Int)

let scheduler_pid = 9990
let domain_pid d = 9000 + d

type t = {
  buf : Buffer.t;
  mutable n_events : int;
  mutable named : int list; (* lanes that already have process_name metadata *)
  mutable next_flow : int;
  flows : int Msg.pending; (* flow ids of the sends not yet delivered *)
  ops : (float * int) Int_tbl.t;
      (* op -> begin time, target; op ids are unique per machine *)
  locks : (int * int * int, float) Hashtbl.t;
      (* (pid, node, offset) -> acquire time: a transfer under a _txn
         transport holds its read and write locks together *)
}

let create () =
  {
    buf = Buffer.create 4096;
    n_events = 0;
    named = [];
    next_flow = 0;
    flows = Msg.pending ();
    ops = Int_tbl.create 32;
    locks = Hashtbl.create 8;
  }

module W = Json_writer

(* Open one record: the separator, then {"ph":..,"pid":..,"tid":0,
   "name":.. (instants add their process scope). The caller writes the
   rest and [close] ends it. *)
let open_record t ~ph ~pid ~name =
  let b = t.buf in
  if t.n_events > 0 then Buffer.add_string b ",\n";
  t.n_events <- t.n_events + 1;
  Buffer.add_char b '{';
  W.key b "ph";
  W.string b ph;
  if ph = "i" then W.field b "s" W.string "p";
  W.field b "pid" W.int pid;
  W.field b "tid" W.int 0;
  W.field b "name" W.string name

let close t ~args =
  if args <> [] then W.field t.buf "args" W.obj args;
  Buffer.add_char t.buf '}'

let lane_name pid =
  if pid = scheduler_pid then "scheduler"
  else if pid >= 9000 then Printf.sprintf "domain %d" (pid - 9000)
  else Printf.sprintf "process %d" pid

let lane t pid =
  if not (List.mem pid t.named) then begin
    t.named <- pid :: t.named;
    open_record t ~ph:"M" ~pid ~name:"process_name";
    close t ~args:[ ("name", String (lane_name pid)) ]
  end

(* Slices and instants continue with [cat], then [ts]. *)
let cat_ts t ~cat ~ts =
  W.field t.buf "cat" W.string cat;
  W.field t.buf "ts" (W.fixed 3) ts

let slice t ~pid ~name ~cat ~ts ~dur ~args =
  lane t pid;
  open_record t ~ph:"X" ~pid ~name;
  cat_ts t ~cat ~ts;
  W.field t.buf "dur" (W.fixed 3) dur;
  close t ~args

let instant t ~pid ~name ~cat ~ts ~args =
  lane t pid;
  open_record t ~ph:"i" ~pid ~name;
  cat_ts t ~cat ~ts;
  close t ~args

let flow t ~pid ~phase ~id ~name ~ts =
  lane t pid;
  open_record t ~ph:phase ~pid ~name;
  W.field t.buf "cat" W.string "msg";
  W.field t.buf "id" W.int id;
  W.field t.buf "ts" (W.fixed 3) ts;
  if String.equal phase "f" then W.field t.buf "bp" W.string "e";
  close t ~args:[]

(* send/deliver stubs get a small nonzero width so flow arrows have a
   visible slice to anchor to in the Perfetto UI *)
let stub_dur = 0.2

(* An RMW's linearization point, an instant on its target node's lane. *)
let rmw t ~time ~node ~origin ~offset ~len kind =
  instant t ~pid:node
    ~name:(Printf.sprintf "rmw %s" kind)
    ~cat:"rmw" ~ts:time
    ~args:[ ("origin", Int origin); ("offset", Int offset); ("len", Int len) ]

let sink t bus (ev : Probe.event) =
  let time = Probe.now bus in
  match ev with
  | Engine_choice { ready; chosen } ->
      instant t ~pid:scheduler_pid ~name:"choice" ~cat:"sched" ~ts:time
        ~args:[ ("ready", Int ready); ("chosen", Int chosen) ]
  | Engine_quiescence { events; outcome } ->
      instant t ~pid:scheduler_pid ~name:"quiescence" ~cat:"sched" ~ts:time
        ~args:[ ("events", Int events); ("outcome", String outcome) ]
  | Net_send _ | Net_deliver _ -> ()
  | Net_drop { src; dst } ->
      instant t ~pid:src ~name:"drop" ~cat:"fault" ~ts:time
        ~args:[ ("dst", Int dst) ]
  | Net_duplicate { src; dst } ->
      instant t ~pid:src ~name:"duplicate" ~cat:"fault" ~ts:time
        ~args:[ ("dst", Int dst) ]
  | Net_reorder { src; dst } ->
      instant t ~pid:src ~name:"reorder" ~cat:"fault" ~ts:time
        ~args:[ ("dst", Int dst) ]
  | Op_begin { pid = _; op; kind = _; target } ->
      Int_tbl.replace t.ops op (time, target)
  | Op_end { pid; op; kind } -> (
      match Int_tbl.find_opt t.ops op with
      | None -> ()
      | Some (t0, target) ->
          Int_tbl.remove t.ops op;
          slice t ~pid
            ~name:(Printf.sprintf "%s → %d" kind target)
            ~cat:"op" ~ts:t0
            ~dur:(Float.max (time -. t0) 0.)
            ~args:[ ("op", Int op); ("target", Int target) ])
  | Msg_sent { src; dst; msg } ->
      let label = Msg.label msg in
      let id = t.next_flow in
      t.next_flow <- id + 1;
      Msg.push_sent t.flows ~src ~dst label id;
      slice t ~pid:src ~name:label ~cat:"msg" ~ts:time ~dur:stub_dur ~args:[];
      flow t ~pid:src ~phase:"s" ~id ~name:label ~ts:time
  | Msg_delivered { src; dst; msg } -> (
      let label = Msg.label msg in
      match Msg.pop_sent t.flows ~src ~dst label with
      | None -> ()
      | Some id ->
          slice t ~pid:dst ~name:label ~cat:"msg" ~ts:time ~dur:stub_dur
            ~args:[];
          flow t ~pid:dst ~phase:"f" ~id ~name:label ~ts:time)
  | Lock_acquired { pid; node; offset; len } ->
      Hashtbl.replace t.locks (pid, node, offset) time;
      instant t ~pid ~name:"lock acquired" ~cat:"lock" ~ts:time
        ~args:[ ("node", Int node); ("offset", Int offset); ("len", Int len) ]
  | Lock_released { pid; node; offset; len } -> (
      match Hashtbl.find_opt t.locks (pid, node, offset) with
      | None -> ()
      | Some t0 ->
          Hashtbl.remove t.locks (pid, node, offset);
          slice t ~pid
            ~name:(Printf.sprintf "lock %d[%d..%d]" node offset (offset + len))
            ~cat:"lock" ~ts:t0
            ~dur:(Float.max (time -. t0) 0.)
            ~args:[])
  | Retransmit { src; dst; seq } ->
      instant t ~pid:src ~name:"retransmit" ~cat:"fault" ~ts:time
        ~args:[ ("dst", Int dst); ("seq", Int seq) ]
  | Batch_flush { pid; node; kind; parts; words } ->
      instant t ~pid
        ~name:(Printf.sprintf "batch %s" kind)
        ~cat:"batch" ~ts:time
        ~args:[ ("node", Int node); ("parts", Int parts); ("words", Int words) ]
  | Atomic_applied { node; offset; kind; origin; _ } ->
      rmw t ~time ~node ~origin ~offset ~len:1 (Probe.atomic_name kind)
  | Acc_applied { node; offset; aop; old; origin; _ } ->
      rmw t ~time ~node ~origin ~offset ~len:(Array.length old)
        (Probe.acc_name aop)
  | Coherence_violation { node; offset; origin } ->
      instant t ~pid:node ~name:"coherence violation" ~cat:"violation"
        ~ts:time
        ~args:[ ("offset", Int offset); ("origin", Int origin) ]
  | Detector_check _ | Clock_merge _ | Write_applied _ | Read_served _ -> ()
  | Race_signal { pid; node; offset; len; kind; against } ->
      instant t ~pid ~name:"race signal" ~cat:"race" ~ts:time
        ~args:
          [
            ("node", Int node);
            ("offset", Int offset);
            ("len", Int len);
            ("kind", String kind);
            ("against", String against);
          ]
  | Run_begin _ | Run_end _ -> ()
  | Violation { run; invariant } ->
      instant t ~pid:scheduler_pid ~name:"invariant violation" ~cat:"explore"
        ~ts:0.
        ~args:[ ("run", Int run); ("invariant", String invariant) ]
  | Domain_claim { domain; first_run; count } ->
      (* The domain lane's axis is runs, not simulated time: a claimed
         chunk renders as the range [first_run, first_run + count), so
         Perfetto shows exactly which contiguous span of the schedule
         space each worker took per fetch-and-add. *)
      slice t ~pid:(domain_pid domain) ~name:"claim" ~cat:"explore"
        ~ts:(float_of_int first_run) ~dur:(float_of_int count)
        ~args:[ ("first_run", Int first_run); ("count", Int count) ]
  | Dpor_prune { point; branch } ->
      instant t ~pid:scheduler_pid ~name:"dpor prune" ~cat:"explore" ~ts:0.
        ~args:[ ("point", Int point); ("branch", Int branch) ]
  | Minimize_step _ -> ()

(* The classes the sink draws: all but the detector's per-access
   events, the apply class and [Run_begin]. *)
let subscribe t bus =
  let open Probe in
  attach bus
    (engine lor net lor op lor msg lor lock lor rmw lor coherence lor race
   lor explore)
    (sink t bus)

let attach bus =
  let t = create () in
  subscribe t bus;
  t

(* Post-hoc annotation entry points (race explanations etc.): the same
   primitives the sink uses, with caller-supplied payloads. *)
let add_instant t ~pid ~name ~cat ~ts ~args = instant t ~pid ~name ~cat ~ts ~args

let add_flow_pair t ~src ~dst ~name ~ts_start ~ts_end =
  let id = t.next_flow in
  t.next_flow <- id + 1;
  flow t ~pid:src ~phase:"s" ~id ~name ~ts:ts_start;
  flow t ~pid:dst ~phase:"f" ~id ~name ~ts:ts_end

let to_json_string t =
  let out = Buffer.create (Buffer.length t.buf + 64) in
  Buffer.add_string out "{\"traceEvents\":[\n";
  Buffer.add_buffer out t.buf;
  Buffer.add_string out "\n],\"displayTimeUnit\":\"ms\"}\n";
  Buffer.contents out
