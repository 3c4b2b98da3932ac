(* Reference oracle for the NIC range-lock table: the version that kept
   the held set in a hashtable from lock id to (offset, len) and found
   conflicts by folding over it. The live table must grant the same
   waiters in the same order, hold and queue the same counts, and fail
   the same way on a double release. *)

type lock_id = int

type waiter = { w_offset : int; w_len : int; grant : lock_id -> unit }

type t = {
  mutable next_id : int;
  held : (lock_id, int * int) Hashtbl.t;
  mutable queue : waiter list; (* reversed: newest first *)
  mutable chained : int;
      (* grants issued from inside [release]: each one runs another
         origin's continuation synchronously within the releasing event,
         so the event's footprint exceeds its label. The schedule
         explorer samples this monotone counter to detect such events. *)
}

let create () =
  { next_id = 0; held = Hashtbl.create 16; queue = []; chained = 0 }

let ranges_overlap (o1, l1) (o2, l2) = o1 < o2 + l2 && o2 < o1 + l1

let conflicts t ~offset ~len =
  Hashtbl.fold
    (fun _ range acc -> acc || ranges_overlap range (offset, len))
    t.held false

let check_range ~offset ~len op =
  if offset < 0 || len < 1 then
    invalid_arg (Printf.sprintf "Lock_table.%s: degenerate range" op)

let grant_now t ~offset ~len =
  let id = t.next_id in
  t.next_id <- id + 1;
  Hashtbl.add t.held id (offset, len);
  id

let conflicts_queued t ~offset ~len =
  List.exists (fun w -> ranges_overlap (w.w_offset, w.w_len) (offset, len))
    t.queue

(* Immediate grant when the range conflicts with nothing held — and, for
   fairness, with nothing already waiting for an overlapping range (a
   stream of small requests must not starve a queued large one). Requests
   for disjoint ranges are never held up by unrelated waiters. *)
let grantable t ~offset ~len =
  (not (conflicts t ~offset ~len)) && not (conflicts_queued t ~offset ~len)

let acquire t ~offset ~len k =
  check_range ~offset ~len "acquire";
  if grantable t ~offset ~len then k (grant_now t ~offset ~len)
  else t.queue <- { w_offset = offset; w_len = len; grant = k } :: t.queue

(* [acquire]'s immediate branch alone: the grant it would call back at
   once, or [None] — nothing queued — when it would wait or raise. *)
let try_acquire t ~offset ~len =
  if offset >= 0 && len >= 1 && grantable t ~offset ~len then
    Some (grant_now t ~offset ~len)
  else None

let release t id =
  if not (Hashtbl.mem t.held id) then
    failwith "Lock_table.release: unknown or already-released lock";
  Hashtbl.remove t.held id;
  (* Grant waiters in arrival order. Collect grants first: a grant callback
     may acquire or release further locks reentrantly. *)
  let in_order = List.rev t.queue in
  let granted = ref [] and still_waiting = ref [] in
  List.iter
    (fun w ->
      if not (conflicts t ~offset:w.w_offset ~len:w.w_len) then begin
        let id = grant_now t ~offset:w.w_offset ~len:w.w_len in
        granted := (w.grant, id) :: !granted
      end
      else still_waiting := w :: !still_waiting)
    in_order;
  t.queue <- !still_waiting;
  let grants = List.rev !granted in
  t.chained <- t.chained + List.length grants;
  List.iter (fun (grant, id) -> grant id) grants

let chained_grants t = t.chained

let held_count t = Hashtbl.length t.held

let queued_count t = List.length t.queue

(* Arena reuse: drop every held lock and queued waiter (their grant
   continuations are unreachable once the owning simulation is reset)
   and restart token numbering, as in [create]. *)
let reset t =
  t.next_id <- 0;
  Hashtbl.reset t.held;
  t.queue <- [];
  t.chained <- 0
