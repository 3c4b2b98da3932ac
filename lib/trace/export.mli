(** Trace serialization and aggregate statistics.

    CSV exports let external tooling (spreadsheets, pandas) consume the
    traces the simulator records; {!summary} condenses a trace for the
    harness's result tables. *)

type summary = {
  events : int;
  accesses : int;
  reads : int;
  writes : int;
  atomics : int;
  syncs : int;
  race_pairs : int;
  racy_accesses : int;
  span : float;  (** time of last event minus time of first, 0 if empty *)
}

val summary : Trace.t -> summary

val pp_summary : Format.formatter -> summary -> unit

val to_csv : Trace.t -> string
(** One row per event:
    [id,time,pid,type,kind,node,offset,len,label] — sync events leave the
    access columns empty and put the lock name / barrier generation in
    [label]. *)
