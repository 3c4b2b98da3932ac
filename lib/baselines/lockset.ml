open Dsm_trace
module StringSet = Set.Make (String)

type verdict = { word : int * int; first_violation : int }

type state =
  | Virgin
  | Exclusive of int
  | Shared of StringSet.t
  | Shared_modified of StringSet.t
  | Reported

let analyze trace =
  let held : (int, StringSet.t) Hashtbl.t = Hashtbl.create 8 in
  let locks_of pid =
    match Hashtbl.find_opt held pid with
    | Some s -> s
    | None -> StringSet.empty
  in
  let states : (int * int, state) Hashtbl.t = Hashtbl.create 256 in
  let verdicts = ref [] in
  let step_word ~pid ~is_write ~event_id key =
    let current =
      match Hashtbl.find_opt states key with Some s -> s | None -> Virgin
    in
    let locks = locks_of pid in
    let report set next =
      if StringSet.is_empty set then begin
        verdicts := { word = key; first_violation = event_id } :: !verdicts;
        Reported
      end
      else next
    in
    let next =
      match current with
      | Reported -> Reported
      | Virgin -> Exclusive pid
      | Exclusive p when p = pid -> Exclusive p
      | Exclusive _ ->
          if is_write then report locks (Shared_modified locks)
          else Shared locks
      | Shared set ->
          let set = StringSet.inter set locks in
          if is_write then report set (Shared_modified set) else Shared set
      | Shared_modified set ->
          let set = StringSet.inter set locks in
          report set (Shared_modified set)
    in
    Hashtbl.replace states key next
  in
  Array.iter
    (fun ev ->
      match ev with
      | Event.Sync (Event.Lock_acquire { pid; lock; _ }) ->
          Hashtbl.replace held pid (StringSet.add lock (locks_of pid))
      | Event.Sync (Event.Lock_release { pid; lock; _ }) ->
          Hashtbl.replace held pid (StringSet.remove lock (locks_of pid))
      | Event.Sync
          (Event.Barrier_enter _ | Event.Barrier_exit _ | Event.Rmw_sync _) ->
          (* Lockset has no notion of barrier or atomic synchronization:
             that blindness is exactly its precision gap on DSM
             programs. *)
          ()
      | Event.Access a ->
          let is_write = a.kind <> Event.Read in
          for i = 0 to a.target.len - 1 do
            step_word ~pid:a.pid ~is_write ~event_id:a.id
              (a.target.base.pid, a.target.base.offset + i)
          done)
    (Trace.events trace);
  List.rev !verdicts

let racy_words trace =
  List.sort_uniq compare (List.map (fun v -> v.word) (analyze trace))
