(** Adapter from detector-side race data to the plain-data explanation
    layer: lowers [Report.race] values (clocks become dense [int array]
    snapshots) and drives {!Dsm_obs.Explain} with the flight-recorder
    window. Pure — explaining a report is a deterministic function of
    (report, granule histories, window). *)

val explain_report :
  window:(float * Dsm_obs.Probe.event) list ->
  Report.t ->
  Dsm_obs.Explain.t list
(** Every signal of the report, in signal order. [window] is the
    flight-recorder contents, oldest first, each event with its time
    ({!Dsm_obs.Flight.events});
    it is indexed once ({!Dsm_obs.Explain.index}) and the index is
    shared by every signal. *)

val explain_atomicity :
  window:(float * Dsm_obs.Probe.event) list ->
  detail:string ->
  Detector.t ->
  Dsm_obs.Explain.t option
(** Fallback for violating runs with {e zero} race signals (e.g. the
    planted RMW write-mark bug, which breaks atomicity without breaking
    happens-before): the first granule — in
    {!Detector.iter_provenance}'s (node, offset, len) order — whose
    history holds atomic updates from two distinct processes becomes an
    "atomicity" explanation of its two most recent such entries.
    [detail] names the violated invariant. *)
