(** Probe → metrics bridge: a bus sink that counts every probe point
    into a {!Metrics.t} registry under a dotted name (["net.send"],
    ["rdma.rmw"] for the [rmw] class's applies, ...), plus a few derived
    instruments:

    - ["detector.epoch_fast_path"] / ["detector.dense_path"] — the
      {!Probe.Detector_check} fast-path split;
    - ["rdma.op_latency_us"] — Op_begin→Op_end latency histogram;
    - ["rdma.lock_wait_us"] — lock request→grant wait histogram (both
      read each event's time with {!Probe.now});
    - ["engine.choice_ready"] — ready-set size at each choice point;
    - ["explore.run_events"] — events per explored run;
    - ["engine.step"] — events executed: each explored run's
      [Run_end.events], and [Engine_quiescence.events] outside a run.

    The sink mutates only its registry, never the simulation — safe
    under the explorer's sink-invariance property. *)

val attach : Metrics.t -> Probe.t -> unit
(** Subscribe a meter over [registry] to every class of the bus but
    {!Probe.apply}. The registry may be shared with other readers; reset
    it between runs via {!Metrics.reset} (handles inside the meter stay
    valid). *)
