(* The metric catalogue: every end-to-end number dsmbench prints, its
   unit, which way is better, and how the regression gate treats it.
   The bounds here are the defaults; [--compare] takes the bounds of
   BENCHMARK.json where it lists the metric. Host-time bounds are 25%:
   even at the reference speed (see Calib), the medians of ten runs of
   one workload spread by up to 7% (quartiles) on a shared 2-core
   host, and a bound is kept at three times its spread. README.md
   defines each metric. *)

type kind =
  | Host  (** host time or rate: noisy, held to a relative bound *)
  | Heap  (** host memory: held to a relative bound *)
  | Exact  (** simulated or counted: any change fails the gate *)
  | No_rise  (** may fall, never rise *)

type t = {
  name : string;
  unit_ : string;
  higher_is_better : bool;
  kind : kind;
  bound : float;
}

let m ?(higher = false) name unit_ kind bound =
  { name; unit_; higher_is_better = higher; kind; bound }

let end_to_end =
  [
    m "setup_s" "s" Host 0.25;
    m "iter_s" "s" Host 0.25;
    m "iter_s_p75" "s" Host 0.25;
    m ~higher:true "ops_per_s" "ops/s" Host 0.25;
    m ~higher:true "schedules_per_s" "1/s" Host 0.25;
    m "report_s" "s" Host 0.25;
    m "peak_heap_mb" "MiB" Heap 0.15;
    m "sim_overhead_x" "ratio" Exact 0.;
    m "msgs_per_op" "msgs/op" Exact 0.;
    m "clock_words_per_op" "words/op" Exact 0.;
    m "races" "count" Exact 0.;
    m "fail_frac" "ratio" No_rise 0.;
  ]

let find name = List.find_opt (fun m -> String.equal m.name name) end_to_end

(* Per-layer metrics of the traced run, in report order. *)
let per_layer =
  [
    ("setup.engine_create_ms", "ms");
    ("setup.machine_create_ms", "ms");
    ("setup.detector_create_ms", "ms");
    ("setup.workload_ms", "ms");
    ("explore.ctx_create_ms", "ms");
    ("sim.events", "count");
    ("sim.host_ns_per_event", "ns");
    ("sim.dispatch_ns_per_event", "ns");
    ("rdma.plain_ns_per_op", "ns");
    ("net.msgs", "count");
    ("net.wire_words", "words");
    ("rdma.locks", "count");
    ("core.detector_ns_per_op", "ns");
    ("core.provenance_ns_per_op", "ns");
    ("core.checks", "count");
    ("core.epoch_fast_path", "count");
    ("core.dense_path", "count");
    ("core.clock_merges", "count");
    ("core.race_signals", "count");
    ("core.epoch_hit_ratio", "ratio");
    ("core.storage_words", "words");
    ("gc.minor_words_per_op", "words/op");
    ("gc.major_collections", "count");
    ("clocks.compare_ns", "ns");
    ("clocks.merge_into_ns", "ns");
    ("clocks.encode_delta_ns", "ns");
    ("clocks.encode_sparse_ns", "ns");
    ("clocks.decode_delta_ns", "ns");
    ("obs.meter_ns_per_op", "ns");
    ("obs.flight_ns_per_op", "ns");
    ("obs.explain_report_ms", "ms");
    ("obs.report_json_ms", "ms");
    ("explore.run_us_p50", "us");
    ("explore.run_us_p75", "us");
    ("explore.fresh_run_us", "us");
    ("explore.replay_share", "ratio");
    ("explore.events_per_run", "count");
    ("explore.choice_points_per_run", "count");
  ]

let unit_of name =
  match find name with
  | Some m -> m.unit_
  | None -> Option.value (List.assoc_opt name per_layer) ~default:""
