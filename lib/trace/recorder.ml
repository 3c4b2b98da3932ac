open Dsm_memory

type reads_from = All_writers | Last_writer

type t = {
  n : int;
  reads_from : reads_from;
  mutable events : Event.t list; (* newest first *)
  mutable preds : int list list; (* parallel to events *)
  mutable count : int;
  (* writer event ids per (owner pid, space flag, word offset): a single
     id under Last_writer, the full history under All_writers *)
  writers : (int * bool * int, int list) Hashtbl.t;
  (* [Rmw_sync] event ids per word: the history the NIC's RMW
     serialization publishes there (always the full list — the
     detector's S clock accumulates) *)
  rmw_syncs : (int * bool * int, int list) Hashtbl.t;
  last_release : (string, int) Hashtbl.t;
  barrier_enters : (int, int list) Hashtbl.t;
}

let create ?(reads_from = All_writers) ~n () =
  if n < 1 then invalid_arg "Recorder.create: n must be positive";
  {
    n;
    reads_from;
    events = [];
    preds = [];
    count = 0;
    writers = Hashtbl.create 256;
    rmw_syncs = Hashtbl.create 64;
    last_release = Hashtbl.create 16;
    barrier_enters = Hashtbl.create 16;
  }

let push t event preds =
  t.events <- event :: t.events;
  t.preds <- preds :: t.preds;
  t.count <- t.count + 1

let word_keys (r : Addr.region) =
  let is_pub = r.base.space = Addr.Public in
  List.init r.len (fun i -> (r.base.pid, is_pub, r.base.offset + i))

let dedup_sorted l = List.sort_uniq compare l

let ids_on tbl keys =
  List.concat_map
    (fun k -> match Hashtbl.find_opt tbl k with None -> [] | Some ids -> ids)
    keys

let access t ~time ~pid ~kind ~target =
  let id = t.count in
  let keys = word_keys target in
  let preds =
    match kind with
    | Event.Read | Event.Atomic_update ->
        (* Reads — and atomic updates, which read before they modify —
           are ordered after the writes whose effects they observed, and
           after the RMW synchronization published on the words. *)
        dedup_sorted (ids_on t.writers keys @ ids_on t.rmw_syncs keys)
    | Event.Write -> []
  in
  push t (Event.Access { id; time; pid; kind; target }) preds;
  if kind = Event.Write || kind = Event.Atomic_update then
    List.iter
      (fun k ->
        let ids =
          match (t.reads_from, Hashtbl.find_opt t.writers k) with
          | Last_writer, _ | All_writers, None -> [ id ]
          | All_writers, Some ids -> id :: ids
        in
        Hashtbl.replace t.writers k ids)
      keys;
  id

let rmw_sync t ~time ~pid ~target ~acquire =
  let id = t.count in
  let keys = word_keys target in
  let preds = if acquire then dedup_sorted (ids_on t.rmw_syncs keys) else [] in
  push t (Event.Sync (Event.Rmw_sync { id; time; pid; target })) preds;
  List.iter
    (fun k ->
      let ids = Option.value (Hashtbl.find_opt t.rmw_syncs k) ~default:[] in
      Hashtbl.replace t.rmw_syncs k (id :: ids))
    keys;
  id

let lock_acquire t ~time ~pid ~lock =
  let id = t.count in
  let preds =
    match Hashtbl.find_opt t.last_release lock with
    | Some j -> [ j ]
    | None -> []
  in
  push t (Event.Sync (Event.Lock_acquire { id; time; pid; lock })) preds;
  id

let lock_release t ~time ~pid ~lock =
  let id = t.count in
  push t (Event.Sync (Event.Lock_release { id; time; pid; lock })) [];
  Hashtbl.replace t.last_release lock id;
  id

let barrier_enter t ~time ~pid ~generation =
  let id = t.count in
  push t (Event.Sync (Event.Barrier_enter { id; time; pid; generation })) [];
  let sofar =
    match Hashtbl.find_opt t.barrier_enters generation with
    | Some l -> l
    | None -> []
  in
  Hashtbl.replace t.barrier_enters generation (id :: sofar);
  id

let barrier_exit t ~time ~pid ~generation =
  let id = t.count in
  let preds =
    match Hashtbl.find_opt t.barrier_enters generation with
    | Some l -> List.rev l
    | None -> []
  in
  push t (Event.Sync (Event.Barrier_exit { id; time; pid; generation })) preds;
  id

let finish t =
  let events = Array.of_list (List.rev t.events) in
  let preds = Array.of_list (List.rev t.preds) in
  Trace.build ~n:t.n ~events ~preds
