(** One-call race explanation from a replay token.

    Re-executes the token in a fresh arena with a {!Dsm_obs.Flight}
    recorder attached, then correlates the run's race signals (or, for
    violating runs with zero signals, the detector's provenance) with the
    recorded event window into {!Dsm_obs.Explain} reports. Every
    [--explain] path in the CLI — explain-on-first-violation during
    exploration, [--replay TOKEN --explain], any [--jobs]×[--chunk]
    combination — goes through this one deterministic function, which is
    why the rendered text and JSON are byte-identical across all of
    them: the token fixes the run, the run fixes the report and the
    window, and rendering is pure. *)

type outcome = {
  result : Explore.run_result;
  explanations : Dsm_obs.Explain.t list;
  text : string;  (** concatenated {!Dsm_obs.Explain.to_text} reports *)
  json : string;  (** {!Dsm_obs.Explain.list_to_json} document *)
}

val of_token : ?timeline:Dsm_obs.Timeline.t -> Token.t -> outcome
(** The flight recorder keeps the run's last 256 events. With
    [timeline], the replay is also captured as a Perfetto trace and each
    explanation's endpoints are annotated into it
    ({!Dsm_obs.Explain.annotate}) — the caller writes the file. Raises
    as {!Explore.create_ctx} does on a token it cannot instantiate. *)
