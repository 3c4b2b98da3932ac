(* Drive the whole explanation pipeline from a replay token: fresh
   arena, flight recorder on the arena bus, deterministic script replay,
   then correlate the detector's report (or, for race-silent violations,
   its provenance) with the recorded window. Because every path —
   explain-on-first-violation, [--replay TOKEN --explain], any
   [--jobs]/[--chunk] combination — funnels through this one function,
   the rendered text and JSON are byte-identical across all of them. *)

module Flight = Dsm_obs.Flight
module Explain = Dsm_obs.Explain
module Timeline = Dsm_obs.Timeline
module Diagnose = Dsm_core.Diagnose
module Detector = Dsm_core.Detector

type outcome = {
  result : Explore.run_result;
  explanations : Explain.t list;
  text : string;
  json : string;
}

let explanations_of ~window ~(result : Explore.run_result) built =
  match (built : Scenario.built option) with
  | None | Some { detector = None; _ } -> []
  | Some { detector = Some d; _ } -> (
      match Diagnose.explain_report ~window (Detector.report d) with
      | _ :: _ as from_report -> from_report
      | [] -> (
          (* No race signal: fall back to provenance-based atomicity
             explanation when the run still violated an invariant. *)
          match result.Explore.violations with
          | [] -> []
          | v :: _ -> (
              let detail =
                Printf.sprintf "%s: %s" v.Explore.invariant v.Explore.detail
              in
              match Diagnose.explain_atomicity ~window ~detail d with
              | None -> []
              | Some e -> [ e ])))

let of_token ?timeline (t : Token.t) =
  let ctx = Explore.create_ctx t.spec in
  let bus = Explore.ctx_probe ctx in
  let flight = Flight.attach bus in
  (match timeline with
  | None -> ()
  | Some tl -> Timeline.subscribe tl bus);
  let result = Explore.run_once_in ctx (Explore.Script t.decisions) in
  let window = Flight.events flight in
  let explanations = explanations_of ~window ~result (Explore.last_built ctx) in
  (match timeline with
  | None -> ()
  | Some tl -> List.iter (Explain.annotate tl) explanations);
  let text = String.concat "" (List.map Explain.to_text explanations) in
  { result; explanations; text; json = Explain.list_to_json explanations }
