type lock_id = int

type waiter = { w_offset : int; w_len : int; grant : lock_id -> unit }

(* The held set is three parallel arrays: lock [held_id.(i)] covers
   [held_off.(i), held_off.(i) + held_len.(i)) for [i < held]. Order in
   the arrays means nothing (a release swaps the last lock into the
   freed slot); only the queue is ordered. *)
type t = {
  mutable next_id : int;
  mutable held_id : lock_id array;
  mutable held_off : int array;
  mutable held_len : int array;
  mutable held : int;
  mutable queue : waiter list; (* reversed: newest first *)
  mutable chained : int;
      (* grants issued from inside [release]: each one runs another
         origin's continuation synchronously within the releasing event,
         so the event's footprint exceeds its label. The schedule
         explorer samples this monotone counter to detect such events. *)
}

let create () =
  {
    next_id = 0;
    held_id = Array.make 8 0;
    held_off = Array.make 8 0;
    held_len = Array.make 8 0;
    held = 0;
    queue = [];
    chained = 0;
  }

let overlaps o1 l1 o2 l2 = o1 < o2 + l2 && o2 < o1 + l1

let conflicts t ~offset ~len =
  let i = ref 0 in
  while !i < t.held && not (overlaps t.held_off.(!i) t.held_len.(!i) offset len)
  do
    incr i
  done;
  !i < t.held

let check_range ~offset ~len op =
  if offset < 0 || len < 1 then
    invalid_arg (Printf.sprintf "Lock_table.%s: degenerate range" op)

let grant_now t ~offset ~len =
  let id = t.next_id in
  t.next_id <- id + 1;
  if t.held = Array.length t.held_id then begin
    let grow a =
      let a' = Array.make (2 * t.held) 0 in
      Array.blit a 0 a' 0 t.held;
      a'
    in
    t.held_id <- grow t.held_id;
    t.held_off <- grow t.held_off;
    t.held_len <- grow t.held_len
  end;
  t.held_id.(t.held) <- id;
  t.held_off.(t.held) <- offset;
  t.held_len.(t.held) <- len;
  t.held <- t.held + 1;
  id

(* Drops lock [id] from the held set by moving the last lock into its
   slot; false when [id] is not held. *)
let remove_held t id =
  let i = ref 0 in
  while !i < t.held && t.held_id.(!i) <> id do
    incr i
  done;
  if !i = t.held then false
  else begin
    let last = t.held - 1 in
    t.held_id.(!i) <- t.held_id.(last);
    t.held_off.(!i) <- t.held_off.(last);
    t.held_len.(!i) <- t.held_len.(last);
    t.held <- last;
    true
  end

(* A recursion rather than [List.exists]: no closure per grant check. *)
let rec overlaps_any offset len = function
  | [] -> false
  | w :: rest ->
      overlaps w.w_offset w.w_len offset len || overlaps_any offset len rest

let conflicts_queued t ~offset ~len = overlaps_any offset len t.queue

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

(* Never a granted id: ids count up from 0. *)
let refused = -1

(* [acquire]'s immediate branch alone: a request it would queue, or
   reject as degenerate, is refused and leaves the table as it was. *)
let try_acquire t ~offset ~len =
  if offset >= 0 && len >= 1 && grantable t ~offset ~len then
    grant_now t ~offset ~len
  else refused

(* Grant waiters in arrival order. Collect grants first: a grant callback
   may acquire or release further locks reentrantly. *)
let grant_waiters t =
  let in_order = List.rev t.queue in
  let granted = ref [] and still_waiting = ref [] in
  List.iter
    (fun w ->
      if conflicts t ~offset:w.w_offset ~len:w.w_len then
        still_waiting := w :: !still_waiting
      else begin
        let id = grant_now t ~offset:w.w_offset ~len:w.w_len in
        granted := (w.grant, id) :: !granted
      end)
    in_order;
  t.queue <- !still_waiting;
  let grants = List.rev !granted in
  t.chained <- t.chained + List.length grants;
  List.iter (fun (grant, id) -> grant id) grants

(* With nobody waiting there is nothing to grant: the common case
   allocates nothing. *)
let release t id =
  if not (remove_held t id) then
    failwith "Lock_table.release: unknown or already-released lock";
  match t.queue with [] -> () | _ :: _ -> grant_waiters t

let chained_grants t = t.chained

let held_count t = t.held

let queued_count t = List.length t.queue

(* Arena reuse: drop every held lock and queued waiter (their grant
   continuations are unreachable once the owning simulation is reset)
   and restart token numbering, as in [create]. *)
let reset t =
  t.next_id <- 0;
  t.held <- 0;
  t.queue <- [];
  t.chained <- 0
