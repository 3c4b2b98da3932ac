(* A probe sink that turns bus traffic into registry instruments.

   Each probe point counts under one dotted name (["net.send"],
   ["rdma.rmw"], ...), written once, in [attach]; a few events
   additionally feed derived instruments (the detector fast/dense
   path split, op latency, per-run event-count histograms). The sink is
   read-only with respect to the simulation — it only mutates the
   registry it was attached with. *)

module Int_tbl = Hashtbl.Make (Int)

let us f = int_of_float (Float.round f)

let attach registry bus =
  let c = Metrics.counter registry and h = Metrics.histogram registry in
  (* handles: one per probe point, resolved once *)
  let engine_step = c "engine.step" in
  let engine_choice = c "engine.choice" in
  let engine_quiescence = c "engine.quiescence" in
  let net_send = c "net.send" in
  let net_wire_words = h "net.wire_words" in
  let net_clock_words = h "net.clock_words" in
  let net_deliver = c "net.deliver" in
  let net_drop = c "net.drop" in
  let net_duplicate = c "net.duplicate" in
  let net_reorder = c "net.reorder" in
  let op_begin = c "rdma.op_begin" in
  let op_end = c "rdma.op_end" in
  let msg_sent = c "rdma.msg_sent" in
  let msg_delivered = c "rdma.msg_delivered" in
  let lock_acquired = c "rdma.lock_acquired" in
  let lock_released = c "rdma.lock_released" in
  let retransmit = c "rdma.retransmit" in
  let batch_flush = c "rdma.batch_flush" in
  let batch_parts = h "rdma.batch_parts" in
  let rmw = c "rdma.rmw" in
  let coherence_violation = c "coherence.violation" in
  let detector_check = c "detector.check" in
  let fast_path = c "detector.epoch_fast_path" in
  let dense_path = c "detector.dense_path" in
  let race_signal = c "detector.race_signal" in
  let clock_merge = c "detector.clock_merge" in
  let runs = c "explore.runs" in
  let violations = c "explore.violations" in
  let chunk_claims = c "explore.chunk_claims" in
  let claimed_runs = c "explore.claimed_runs" in
  let dpor_pruned = c "explore.dpor_pruned" in
  let minimize_steps = c "explore.minimize_steps" in
  let choice_ready = h "engine.choice_ready" in
  let op_latency = h "rdma.op_latency_us" in
  let run_events = h "explore.run_events" in
  let lock_wait = h "rdma.lock_wait_us" in
  (* op -> begin time, for op latency (an op id is unique per machine:
     [Machine.fresh_op] is one counter); pid -> lock request time *)
  let inflight = Int_tbl.create 32 and lock_pending = Int_tbl.create 8 in
  (* between an explorer's Run_begin and Run_end *)
  let in_run = ref false in
  Probe.attach bus
    Probe.(all land lnot apply)
    (fun (ev : Probe.event) ->
      match ev with
      | Engine_choice { ready; _ } ->
          Metrics.incr engine_choice;
          Metrics.observe choice_ready ready
      | Engine_quiescence { events; _ } ->
          Metrics.incr engine_quiescence;
          (* an explored run counts at [Run_end], sent even at an event
             limit *)
          if not !in_run then Metrics.add engine_step events
      | Net_send { wire_words; clock_words; _ } ->
          Metrics.incr net_send;
          Metrics.observe net_wire_words wire_words;
          (* only clock-carrying messages contribute, so the histogram's
             mean is words-per-piggyback, not diluted by control traffic *)
          if clock_words > 0 then Metrics.observe net_clock_words clock_words
      | Net_deliver _ -> Metrics.incr net_deliver
      | Net_drop _ -> Metrics.incr net_drop
      | Net_duplicate _ -> Metrics.incr net_duplicate
      | Net_reorder _ -> Metrics.incr net_reorder
      | Op_begin { time; pid; op; kind; _ } ->
          Metrics.incr op_begin;
          Int_tbl.replace inflight op time;
          if String.equal kind "lock" then Int_tbl.replace lock_pending pid time
      | Op_end { time; op; _ } -> (
          Metrics.incr op_end;
          match Int_tbl.find_opt inflight op with
          | None -> ()
          | Some t0 ->
              Int_tbl.remove inflight op;
              Metrics.observe op_latency (us (time -. t0)))
      | Msg_sent _ -> Metrics.incr msg_sent
      | Msg_delivered _ -> Metrics.incr msg_delivered
      | Lock_acquired { time; pid; _ } -> (
          Metrics.incr lock_acquired;
          match Int_tbl.find_opt lock_pending pid with
          | None -> ()
          | Some t0 ->
              Int_tbl.remove lock_pending pid;
              Metrics.observe lock_wait (us (time -. t0)))
      | Lock_released _ -> Metrics.incr lock_released
      | Retransmit _ -> Metrics.incr retransmit
      | Batch_flush { parts; _ } ->
          Metrics.incr batch_flush;
          Metrics.observe batch_parts parts
      | Rmw _ -> Metrics.incr rmw
      | Coherence_violation _ -> Metrics.incr coherence_violation
      | Detector_check { fast_path = fast; _ } ->
          Metrics.incr detector_check;
          Metrics.incr (if fast then fast_path else dense_path)
      | Race_signal _ -> Metrics.incr race_signal
      | Clock_merge _ -> Metrics.incr clock_merge
      | Run_begin _ ->
          in_run := true;
          Int_tbl.reset inflight;
          Int_tbl.reset lock_pending
      | Run_end { events; _ } ->
          in_run := false;
          Metrics.add engine_step events;
          Metrics.incr runs;
          Metrics.observe run_events events
      | Violation _ -> Metrics.incr violations
      | Domain_claim { count; _ } ->
          Metrics.incr chunk_claims;
          Metrics.add claimed_runs count
      | Dpor_prune _ -> Metrics.incr dpor_pruned
      | Minimize_step _ -> Metrics.incr minimize_steps
      | Write_applied _ | Read_served _ | Atomic_applied _ | Acc_applied _ -> ())
