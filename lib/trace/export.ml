type summary = {
  events : int;
  accesses : int;
  reads : int;
  writes : int;
  atomics : int;
  syncs : int;
  race_pairs : int;
  racy_accesses : int;
  span : float;
}

let summary t =
  let events = Trace.events t in
  let n = Array.length events in
  let reads = ref 0 and writes = ref 0 and atomics = ref 0 and syncs = ref 0 in
  Array.iter
    (fun e ->
      match e with
      | Event.Access { kind = Event.Read; _ } -> incr reads
      | Event.Access { kind = Event.Write; _ } -> incr writes
      | Event.Access { kind = Event.Atomic_update; _ } -> incr atomics
      | Event.Sync _ -> incr syncs)
    events;
  let races = Trace.races t in
  {
    events = n;
    accesses = !reads + !writes + !atomics;
    reads = !reads;
    writes = !writes;
    atomics = !atomics;
    syncs = !syncs;
    race_pairs = List.length races;
    racy_accesses = Hashtbl.length (Trace.racy_access_ids t);
    span =
      (if n = 0 then 0.
       else Event.time events.(n - 1) -. Event.time events.(0));
  }

let pp_summary ppf s =
  Format.fprintf ppf
    "%d events (%d reads, %d writes, %d atomics, %d syncs) over %.2f us; %d race pair(s) touching %d access(es)"
    s.events s.reads s.writes s.atomics s.syncs s.span s.race_pairs
    s.racy_accesses

let csv_escape s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let to_csv t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "id,time,pid,type,kind,node,offset,len,label\n";
  Array.iter
    (fun e ->
      let id = Event.id e and time = Event.time e and pid = Event.pid e in
      let row =
        match e with
        | Event.Access a ->
            Printf.sprintf "%d,%.6f,%d,access,%s,%d,%d,%d," id time pid
              (Event.kind_name a.kind) a.target.base.pid a.target.base.offset
              a.target.len
        | Event.Sync (Event.Lock_acquire { lock; _ }) ->
            Printf.sprintf "%d,%.6f,%d,lock-acquire,,,,,%s" id time pid
              (csv_escape lock)
        | Event.Sync (Event.Lock_release { lock; _ }) ->
            Printf.sprintf "%d,%.6f,%d,lock-release,,,,,%s" id time pid
              (csv_escape lock)
        | Event.Sync (Event.Barrier_enter { generation; _ }) ->
            Printf.sprintf "%d,%.6f,%d,barrier-enter,,,,,%d" id time pid
              generation
        | Event.Sync (Event.Barrier_exit { generation; _ }) ->
            Printf.sprintf "%d,%.6f,%d,barrier-exit,,,,,%d" id time pid
              generation
        | Event.Sync (Event.Rmw_sync { target; _ }) ->
            Printf.sprintf "%d,%.6f,%d,rmw-sync,,%d,%d,%d," id time pid
              target.base.pid target.base.offset target.len
      in
      Buffer.add_string buf row;
      Buffer.add_char buf '\n')
    (Trace.events t);
  Buffer.contents buf
