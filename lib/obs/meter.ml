(* A probe sink that turns bus traffic into registry instruments.

   Each probe point counts under one dotted name (["net.send"],
   ["rdma.rmw"], ...), written once, in [create]; a few events
   additionally feed derived instruments (the detector fast/dense
   path split, op latency, per-run event-count histograms). The sink is
   read-only with respect to the simulation — it only mutates the
   registry it was attached with. *)

module Int_tbl = Hashtbl.Make (Int)

type t = {
  registry : Metrics.t;
  (* cached handles: one per probe point, resolved once *)
  engine_step : Metrics.counter;
  engine_choice : Metrics.counter;
  engine_quiescence : Metrics.counter;
  net_send : Metrics.counter;
  net_wire_words : Metrics.histogram;
  net_clock_words : Metrics.histogram;
  net_deliver : Metrics.counter;
  net_drop : Metrics.counter;
  net_duplicate : Metrics.counter;
  net_reorder : Metrics.counter;
  op_begin : Metrics.counter;
  op_end : Metrics.counter;
  msg_sent : Metrics.counter;
  msg_delivered : Metrics.counter;
  lock_acquired : Metrics.counter;
  lock_released : Metrics.counter;
  retransmit : Metrics.counter;
  batch_flush : Metrics.counter;
  batch_parts : Metrics.histogram;
  rmw : Metrics.counter;
  coherence_violation : Metrics.counter;
  detector_check : Metrics.counter;
  fast_path : Metrics.counter;
  dense_path : Metrics.counter;
  race_signal : Metrics.counter;
  clock_merge : Metrics.counter;
  runs : Metrics.counter;
  violations : Metrics.counter;
  chunk_claims : Metrics.counter;
  claimed_runs : Metrics.counter;
  dpor_pruned : Metrics.counter;
  minimize_steps : Metrics.counter;
  choice_ready : Metrics.histogram;
  op_latency : Metrics.histogram;
  run_events : Metrics.histogram;
  lock_wait : Metrics.histogram;
  (* op -> begin time, for op latency (an op id is unique per machine:
     [Machine.fresh_op] is one counter); pid -> lock request time *)
  inflight : float Int_tbl.t;
  lock_pending : float Int_tbl.t;
  mutable in_run : bool;  (* between an explorer's Run_begin and Run_end *)
}

let create registry =
  let c = Metrics.counter registry and h = Metrics.histogram registry in
  {
    registry;
    engine_step = c "engine.step";
    engine_choice = c "engine.choice";
    engine_quiescence = c "engine.quiescence";
    net_send = c "net.send";
    net_wire_words = h "net.wire_words";
    net_clock_words = h "net.clock_words";
    net_deliver = c "net.deliver";
    net_drop = c "net.drop";
    net_duplicate = c "net.duplicate";
    net_reorder = c "net.reorder";
    op_begin = c "rdma.op_begin";
    op_end = c "rdma.op_end";
    msg_sent = c "rdma.msg_sent";
    msg_delivered = c "rdma.msg_delivered";
    lock_acquired = c "rdma.lock_acquired";
    lock_released = c "rdma.lock_released";
    retransmit = c "rdma.retransmit";
    batch_flush = c "rdma.batch_flush";
    batch_parts = h "rdma.batch_parts";
    rmw = c "rdma.rmw";
    coherence_violation = c "coherence.violation";
    detector_check = c "detector.check";
    fast_path = c "detector.epoch_fast_path";
    dense_path = c "detector.dense_path";
    race_signal = c "detector.race_signal";
    clock_merge = c "detector.clock_merge";
    runs = c "explore.runs";
    violations = c "explore.violations";
    chunk_claims = c "explore.chunk_claims";
    claimed_runs = c "explore.claimed_runs";
    dpor_pruned = c "explore.dpor_pruned";
    minimize_steps = c "explore.minimize_steps";
    choice_ready = h "engine.choice_ready";
    op_latency = h "rdma.op_latency_us";
    run_events = h "explore.run_events";
    lock_wait = h "rdma.lock_wait_us";
    inflight = Int_tbl.create 32;
    lock_pending = Int_tbl.create 8;
    in_run = false;
  }

let us f = int_of_float (Float.round f)

let sink t (ev : Probe.event) =
  match ev with
  | Engine_choice { ready; _ } ->
      Metrics.incr t.engine_choice;
      Metrics.observe t.choice_ready ready
  | Engine_quiescence { events; _ } ->
      Metrics.incr t.engine_quiescence;
      (* an explored run counts at [Run_end], sent even at an event limit *)
      if not t.in_run then Metrics.add t.engine_step events
  | Net_send { wire_words; clock_words; _ } ->
      Metrics.incr t.net_send;
      Metrics.observe t.net_wire_words wire_words;
      (* only clock-carrying messages contribute, so the histogram's
         mean is words-per-piggyback, not diluted by control traffic *)
      if clock_words > 0 then Metrics.observe t.net_clock_words clock_words
  | Net_deliver _ -> Metrics.incr t.net_deliver
  | Net_drop _ -> Metrics.incr t.net_drop
  | Net_duplicate _ -> Metrics.incr t.net_duplicate
  | Net_reorder _ -> Metrics.incr t.net_reorder
  | Op_begin { time; pid; op; kind; _ } ->
      Metrics.incr t.op_begin;
      Int_tbl.replace t.inflight op time;
      if String.equal kind "lock" then Int_tbl.replace t.lock_pending pid time
  | Op_end { time; op; _ } -> (
      Metrics.incr t.op_end;
      match Int_tbl.find_opt t.inflight op with
      | None -> ()
      | Some t0 ->
          Int_tbl.remove t.inflight op;
          Metrics.observe t.op_latency (us (time -. t0)))
  | Msg_sent _ -> Metrics.incr t.msg_sent
  | Msg_delivered _ -> Metrics.incr t.msg_delivered
  | Lock_acquired { time; pid; _ } -> (
      Metrics.incr t.lock_acquired;
      match Int_tbl.find_opt t.lock_pending pid with
      | None -> ()
      | Some t0 ->
          Int_tbl.remove t.lock_pending pid;
          Metrics.observe t.lock_wait (us (time -. t0)))
  | Lock_released _ -> Metrics.incr t.lock_released
  | Retransmit _ -> Metrics.incr t.retransmit
  | Batch_flush { parts; _ } ->
      Metrics.incr t.batch_flush;
      Metrics.observe t.batch_parts parts
  | Rmw _ -> Metrics.incr t.rmw
  | Coherence_violation _ -> Metrics.incr t.coherence_violation
  | Detector_check { fast_path; _ } ->
      Metrics.incr t.detector_check;
      Metrics.incr (if fast_path then t.fast_path else t.dense_path)
  | Race_signal _ -> Metrics.incr t.race_signal
  | Clock_merge _ -> Metrics.incr t.clock_merge
  | Run_begin _ ->
      t.in_run <- true;
      Int_tbl.reset t.inflight;
      Int_tbl.reset t.lock_pending
  | Run_end { events; _ } ->
      t.in_run <- false;
      Metrics.add t.engine_step events;
      Metrics.incr t.runs;
      Metrics.observe t.run_events events
  | Violation _ -> Metrics.incr t.violations
  | Domain_claim { count; _ } ->
      Metrics.incr t.chunk_claims;
      Metrics.add t.claimed_runs count
  | Dpor_prune _ -> Metrics.incr t.dpor_pruned
  | Minimize_step _ -> Metrics.incr t.minimize_steps

let attach registry bus =
  let t = create registry in
  Probe.attach bus (sink t);
  t
