(* The events scheduled for the current instant, in schedule order: a
   ring of parallel arrays whose capacity is a power of two, doubled when
   full and kept across [reset]. A slot past the live range holds
   [ignore], never a fired action, so the ring keeps no dead closure
   reachable. *)
type fifo = {
  mutable actions : (unit -> unit) array;
  mutable seqs : int array;
  mutable labels : int array;
  mutable head : int;
  mutable len : int;
}

type t = {
  clock : float ref;
      (* the simulated time, in microseconds; the bus reads the same
         cell, so a probe sink sees the instant its event happened *)
  mutable seq : int;
  mutable events : int;
  mutable live : int;
  mutable failed : (string * exn) option;
      (* first process failure inside the current event; raised as
         Process_failure by the run loop once the event action has
         finished, so a failure never truncates sibling callbacks (lock
         grants, ivar waiters) scheduled within the same event *)
  mutable chooser : (int -> int) option;
      (* schedule-exploration hook: picks among same-time ready events *)
  mutable choice_view : ((int * Label.t) array -> unit) option;
      (* fired just before the chooser at every choice point with the
         ready set's (seq, label) pairs in seq order — index-aligned with
         the chooser's pick. The DPOR layer's window into footprints. *)
  heap : (unit -> unit) Heap.t;
      (* events scheduled for a later instant than the one they were
         scheduled in *)
  fifo : fifo;
      (* events scheduled for the instant they were scheduled in
         ([schedule_at ~at:now]); see [run] for why firing the heap's
         entries at [now] first, then these, is [(time, seq)] order *)
  rng : Prng.t;
  probe : Dsm_obs.Probe.t;
      (* the simulation's one telemetry bus; survives [reset] so sinks
         attached by an exploration driver observe every reused run *)
}

exception Process_failure of string * exn

type _ Effect.t += Await : (('a -> unit) -> unit) -> 'a Effect.t

let create ?(seed = 0x5eed) () =
  let clock = ref 0. in
  {
    clock;
    seq = 0;
    events = 0;
    live = 0;
    failed = None;
    chooser = None;
    choice_view = None;
    heap = Heap.create ~dummy:ignore;
    fifo = { actions = [||]; seqs = [||]; labels = [||]; head = 0; len = 0 };
    rng = Prng.create ~seed;
    probe = Dsm_obs.Probe.create ~clock;
  }

(* ---------- the current instant's FIFO ---------- *)

let fifo_push q ~seq ~label action =
  let cap = Array.length q.actions in
  if q.len = cap then begin
    let cap' = if cap = 0 then 16 else 2 * cap in
    let actions = Array.make cap' ignore and seqs = Array.make cap' 0 in
    let labels = Array.make cap' Label.unknown in
    (* A full ring runs from [head] to the end, then from 0 to [head]. *)
    let unwrap src dst =
      Array.blit src q.head dst 0 (cap - q.head);
      Array.blit src 0 dst (cap - q.head) q.head
    in
    unwrap q.actions actions;
    unwrap q.seqs seqs;
    unwrap q.labels labels;
    q.actions <- actions;
    q.seqs <- seqs;
    q.labels <- labels;
    q.head <- 0
  end;
  let i = (q.head + q.len) land (Array.length q.actions - 1) in
  Array.unsafe_set q.actions i action;
  Array.unsafe_set q.seqs i seq;
  Array.unsafe_set q.labels i label;
  q.len <- q.len + 1

let fifo_take q =
  let i = q.head in
  let action = Array.unsafe_get q.actions i in
  Array.unsafe_set q.actions i ignore;
  q.head <- (i + 1) land (Array.length q.actions - 1);
  q.len <- q.len - 1;
  action

(* Removes the [j]-th queued event and closes the gap: later entries
   move one place towards the head. Schedule exploration only. *)
let fifo_remove q j =
  let mask = Array.length q.actions - 1 in
  let at j = (q.head + j) land mask in
  let action = q.actions.(at j) in
  for j = j to q.len - 2 do
    q.actions.(at j) <- q.actions.(at (j + 1));
    q.seqs.(at j) <- q.seqs.(at (j + 1));
    q.labels.(at j) <- q.labels.(at (j + 1))
  done;
  q.actions.(at (q.len - 1)) <- ignore;
  q.len <- q.len - 1;
  action

let fifo_view q =
  let mask = Array.length q.actions - 1 in
  Array.init q.len (fun j ->
      let i = (q.head + j) land mask in
      (q.seqs.(i), q.labels.(i)))

let fifo_clear q =
  for j = 0 to q.len - 1 do
    q.actions.((q.head + j) land (Array.length q.actions - 1)) <- ignore
  done;
  q.head <- 0;
  q.len <- 0

(* Arena-style reuse: put an engine back in the [create ~seed ()] state
   without reallocating. The heap and the FIFO keep their capacity, the
   generator object is reseeded in place, and any suspended process
   continuations from the previous run are simply dropped with the
   entries that would have resumed them: clearing overwrites their
   slots, so they are unreachable and get collected. *)
let reset ?(seed = 0x5eed) sim =
  sim.clock := 0.;
  sim.seq <- 0;
  sim.events <- 0;
  sim.live <- 0;
  sim.failed <- None;
  sim.chooser <- None;
  sim.choice_view <- None;
  Heap.clear sim.heap;
  fifo_clear sim.fifo;
  Prng.reseed sim.rng ~seed

let now sim = !(sim.clock)

let rng sim = sim.rng

let probe sim = sim.probe

let next_seq sim =
  let s = sim.seq in
  sim.seq <- s + 1;
  s

let schedule_at sim ~at ~label f =
  if at < now sim then invalid_arg "Engine.schedule_at: time in the past";
  let seq = next_seq sim in
  if at = now sim then fifo_push sim.fifo ~seq ~label f
  else Heap.add sim.heap ~time:at ~seq ~label f

let schedule sim ?(delay = 0.) ?(label = Label.unknown) f =
  if delay < 0. then invalid_arg "Engine.schedule: negative delay";
  schedule_at sim ~at:(now sim +. delay) ~label f

(* Who a process is, kept as one value so that each suspension's
   resumer captures one word for it; its name is formatted only when a
   failure message needs it: the name it was spawned with, else
   ["P<node>"] for one spawned with a footprint label (a machine's
   process), else ["process"]. *)
type who = Named of string | Node of int | Anonymous

let process_name = function
  | Named s -> s
  | Node node -> "P" ^ string_of_int node
  | Anonymous -> "process"

let record_failure sim who e =
  if sim.failed = None then sim.failed <- Some (process_name who, e)

(* Runs [body] under the effect handler that implements Await. The handler
   converts each Await into a registration of a one-shot resumer;
   everything after the Await runs when (and only when) that resumer is
   called. The continuation is itself one-shot, so the resumer keeps no
   flag of its own: a second [continue] raises
   [Effect.Continuation_already_resumed], which the resumer turns into a
   failure naming the process. *)
let start_process sim who body =
  let open Effect.Deep in
  let handler =
    {
      retc = (fun () -> sim.live <- sim.live - 1);
      exnc =
        (fun e ->
          (* Record rather than raise: raising here would unwind through
             whatever resumed the process (a lock-grant loop, an ivar
             fill), truncating the callbacks of its siblings and leaving
             locks granted to nobody. The run loop raises once the
             current event action has returned. *)
          sim.live <- sim.live - 1;
          record_failure sim who e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Await register ->
              Some
                (fun (k : (a, unit) continuation) ->
                  let resume v =
                    match continue k v with
                    | () -> ()
                    | exception Effect.Continuation_already_resumed ->
                        failwith
                          (Printf.sprintf
                             "Engine: process %S resumed twice"
                             (process_name who))
                  in
                  match register resume with
                  | () -> ()
                  | exception e -> (
                      (* A register function that raises before handing
                         the resumer off would otherwise leak the
                         suspended process (live never decremented, heap
                         intact): feed the exception back into the
                         process at the await point so exnc settles the
                         accounting. If it resumed the process first,
                         the continuation is spent and the exception
                         goes up instead. *)
                      match discontinue k e with
                      | () -> ()
                      | exception Effect.Continuation_already_resumed ->
                          raise e))
          | _ -> None);
    }
  in
  match_with body () handler

let spawn sim ?name ?(label = Label.unknown) body =
  let who =
    match name with
    | Some s -> Named s
    | None when Label.is_known label -> Node (Label.node label)
    | None -> Anonymous
  in
  sim.live <- sim.live + 1;
  schedule_at sim ~at:(now sim) ~label (fun () -> start_process sim who body)

let await _sim register = Effect.perform (Await register)

let sleep ?(label = Label.unknown) sim dt =
  if dt < 0. then invalid_arg "Engine.sleep: negative duration";
  await sim (fun resume -> schedule_at sim ~at:(now sim +. dt) ~label resume)

type outcome =
  | Completed
  | Blocked of int
  | Time_limit_reached
  | Event_limit_reached
  | Stopped

let set_chooser sim f = sim.chooser <- f

let set_choice_view sim f = sim.choice_view <- f

(* A choice point at [now]: ties on simulated time become explicit, and
   the chooser picks which of the ready events fires next. The ready set
   is the heap's entries at [now], in seq order, followed by the FIFO:
   that is seq order too (see [run]). The clock already reads [now], so
   a sink of the [Engine_choice] event sees the instant the chosen event
   fires at. With exactly one event ready this is the production pop. *)
let pop_chosen sim choose =
  let q = sim.fifo in
  let in_heap =
    if Heap.min_at sim.heap (now sim) then Heap.ready_count sim.heap else 0
  in
  match in_heap + q.len with
  | 1 -> if in_heap = 1 then Heap.pop_min sim.heap else fifo_take q
  | r ->
      (match sim.choice_view with
      | Some view ->
          view
            (Array.append
               (if in_heap = 0 then [||] else Heap.ready_view sim.heap)
               (fifo_view q))
      | None -> ());
      let k = choose r in
      let i = if k < 0 then 0 else if k >= r then r - 1 else k in
      let action =
        if i >= in_heap then fifo_remove q (i - in_heap)
        else
          match Heap.pop_kth sim.heap i with
          | Some (_, _, action) -> action
          | None -> invalid_arg "Engine: choice point on an empty heap"
      in
      if sim.probe.on land Dsm_obs.Probe.engine <> 0 then
        Dsm_obs.Probe.emit sim.probe (Engine_choice { ready = r; chosen = k });
      action

(* The FIFO holds the events scheduled for [now] while the clock stood
   at [now]; the heap's entries at [now] were all scheduled before the
   clock reached it. Seqs grow with every schedule, so every FIFO entry
   has a larger seq than every heap entry at [now], and the FIFO is in
   seq order: firing the heap's entries at [now], then the FIFO, then
   the rest of the heap is exactly [(time, seq)] order. The clock moves
   only when the FIFO is empty, so the FIFO never holds an earlier
   instant. *)
let run ?max_events sim =
  let budget = match max_events with None -> max_int | Some m -> m in
  let check_failed () =
    match sim.failed with
    | Some (name, e) ->
        sim.failed <- None;
        raise (Process_failure (name, e))
    | None -> ()
  in
  (* Completed/Blocked are the true quiescent ends of a run; budget
     stops are checkpoints (the explorer steps runs in fixed event
     strides), so only the former are worth a probe event. *)
  let quiescence outcome name =
    if sim.probe.on land Dsm_obs.Probe.engine <> 0 then
      Dsm_obs.Probe.emit sim.probe
        (Engine_quiescence { events = sim.events; outcome = name });
    outcome
  in
  (* With no chooser the pop is exactly (time, seq) order, the
     deterministic production path. A FIFO event fires at [now] and
     reads no time from the heap. *)
  let rec loop () =
    if sim.events >= budget then Event_limit_reached
    else if sim.fifo.len > 0 then
      fire
        (match sim.chooser with
        | None ->
            if Heap.min_at sim.heap (now sim) then Heap.pop_min sim.heap
            else fifo_take sim.fifo
        | Some choose -> pop_chosen sim choose)
    else if Heap.is_empty sim.heap then
      if sim.live > 0 then quiescence (Blocked sim.live) "blocked"
      else quiescence Completed "completed"
    else begin
      sim.clock := Heap.min_time sim.heap;
      fire
        (match sim.chooser with
        | None -> Heap.pop_min sim.heap
        | Some choose -> pop_chosen sim choose)
    end
  and fire action =
    sim.events <- sim.events + 1;
    action ();
    check_failed ();
    loop ()
  in
  loop ()

let events_processed sim = sim.events
