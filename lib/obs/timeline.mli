(** Chrome/Perfetto trace-event JSON exporter.

    A probe sink that accumulates a timeline — one lane per simulated
    node plus a scheduler lane and one lane per explorer domain — and
    serialises it in the trace-event JSON format that Perfetto and
    [chrome://tracing] load directly:

    - operation lifetimes and lock-held spans as ["X"] complete slices;
    - protocol-message arrows as ["s"]/["f"] flow-event pairs;
    - race signals, coherence violations, and injected faults as
      ["i"] instant events.

    Simulated time is microseconds, the native [ts] unit, so timestamps
    are exported unscaled. *)

type t

val create : unit -> t

val subscribe : t -> Probe.t -> unit
(** Subscribe the timeline to the classes it draws: every class but
    {!Probe.check}, {!Probe.apply} and {!Probe.run_begin}. *)

val attach : Probe.t -> t
(** A new timeline, subscribed to the bus. *)

val to_json_string : t -> string
(** The complete [{"traceEvents": [...]}] document. *)

val add_instant :
  t ->
  pid:int ->
  name:string ->
  cat:string ->
  ts:float ->
  args:(string * Json_writer.value) list ->
  unit
(** Append an ["i"] instant record directly — used by {!Explain.annotate}
    to mark the two endpoints of an explained race. [args] become the
    record's ["args"] object, in order; [[]] omits it. *)

val add_flow_pair :
  t -> src:int -> dst:int -> name:string -> ts_start:float -> ts_end:float -> unit
(** Append a matched ["s"]/["f"] flow-arrow pair with a fresh id, from
    lane [src] at [ts_start] to lane [dst] at [ts_end]. *)
