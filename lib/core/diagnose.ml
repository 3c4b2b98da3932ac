(* Lower detector-side race data (Report.race + granule histories +
   the flight-recorder window) into the plain-data explanation layer
   (Dsm_obs.Explain). The conversion is pure, so explaining a report is
   a deterministic function of (report, histories, window). *)

open Dsm_clocks
module Event = Dsm_trace.Event
module Explain = Dsm_obs.Explain

let access_of_entry (e : Provenance.entry) =
  {
    Explain.pid = e.pid;
    kind = Event.kind_name e.kind;
    time = e.time;
    op = e.op;
    event_id = e.event_id;
    clock = Vector_clock.to_array e.clock;
  }

let explain_race index (r : Report.race) =
  let granule = r.granule in
  Explain.of_race ~node:granule.Dsm_memory.Addr.base.pid
    ~offset:granule.Dsm_memory.Addr.base.offset
    ~len:granule.Dsm_memory.Addr.len
    ~against:(Report.against_tag r.against)
    ~flagged:
      {
        Explain.pid = r.accessor;
        kind = Event.kind_name r.kind;
        time = r.time;
        op = -1;
        event_id = (match r.event_id with Some id -> id | None -> -1);
        clock = Vector_clock.to_array r.accessor_clock;
      }
    ~datum_clock:(Vector_clock.to_array r.datum_clock)
    ?prior:(Option.map access_of_entry r.prior)
    ~index ()

(* The window is indexed once and shared by every race of the report. *)
let explain_report ~window report =
  let index = Explain.index window in
  List.map (explain_race index) (Report.races report)

(* Fallback for violations that produce *no* race signal (the planted
   RMW-atomicity bug): find the granule whose provenance history holds
   atomic updates from at least two processes, and explain its two most
   recent entries from distinct processes as an atomicity conflict. *)
let explain_atomicity ~window ~detail detector =
  let best = ref None in
  Detector.iter_provenance detector ~f:(fun ~node ~offset ~len entries ->
      if !best = None then begin
        let atomics =
          List.filter
            (fun (e : Provenance.entry) -> e.kind = Event.Atomic_update)
            entries
        in
        match atomics with
        | newest :: rest -> (
            match List.find_opt (fun (e : Provenance.entry) ->
                      e.pid <> newest.pid) rest
            with
            | Some other -> best := Some (node, offset, len, newest, other)
            | None -> ())
        | [] -> ()
      end);
  match !best with
  | None -> None
  | Some (node, offset, len, newest, other) ->
      Some
        (Explain.of_atomicity ~node ~offset ~len
           ~flagged:(access_of_entry newest)
           ~prior:(access_of_entry other) ~index:(Explain.index window)
           ~detail ())
