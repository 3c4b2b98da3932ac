(** Probe → metrics bridge: a bus sink that counts every probe point
    into a {!Metrics.t} registry under a dotted name (["net.send"],
    ["rdma.rmw"], ...), plus a few derived instruments:

    - ["detector.epoch_fast_path"] / ["detector.dense_path"] — the
      {!Probe.Detector_check} fast-path split;
    - ["rdma.op_latency_us"] — Op_begin→Op_end latency histogram;
    - ["rdma.lock_wait_us"] — lock request→grant wait histogram;
    - ["engine.choice_ready"] — ready-set size at each choice point;
    - ["explore.run_events"] — events per explored run;
    - ["engine.step"] — events executed: each explored run's
      [Run_end.events], and [Engine_quiescence.events] outside a run.

    The sink mutates only its registry, never the simulation — safe
    under the explorer's sink-invariance property. *)

type t

val attach : Metrics.t -> Probe.t -> t
(** Create a meter over [registry] and subscribe it to the bus. The
    registry may be shared with other readers; reset it between runs via
    {!Metrics.reset} (handles inside the meter stay valid). *)
