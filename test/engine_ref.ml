(* Reference oracle for the engine's dispatch order: the single-heap
   loop the engine ran before same-instant events got a FIFO of their
   own. Every event, whatever its time, waits in one [Heap_ref] keyed by
   [(time, seq)]; a choice point's ready set is every entry at the
   minimum time, in seq order. Processes and probes are left out: the
   live [Dsm_sim.Engine] must fire the same events at the same times,
   offer the same ready sets and take the same picks. *)

open Dsm_sim

type t = {
  mutable now : float;
  mutable seq : int;
  mutable events : int;
  mutable chooser : (int -> int) option;
  mutable choice_view : ((int * Label.t) array -> unit) option;
  heap : (unit -> unit) Heap_ref.t;
}

let create () =
  {
    now = 0.;
    seq = 0;
    events = 0;
    chooser = None;
    choice_view = None;
    heap = Heap_ref.create ~dummy:ignore;
  }

let reset sim =
  sim.now <- 0.;
  sim.seq <- 0;
  sim.events <- 0;
  sim.chooser <- None;
  sim.choice_view <- None;
  Heap_ref.clear sim.heap

let now sim = sim.now

let schedule_at sim ~at ~label f =
  if at < sim.now then invalid_arg "Engine.schedule_at: time in the past";
  let seq = sim.seq in
  sim.seq <- seq + 1;
  Heap_ref.add sim.heap ~time:at ~seq ~label f

let set_chooser sim f = sim.chooser <- f

let set_choice_view sim f = sim.choice_view <- f

let events_processed sim = sim.events

let pop_value popped =
  match popped with
  | Some (_, _, action) -> action
  | None -> invalid_arg "Engine: choice point on an empty heap"

let pop_chosen sim choose =
  match Heap_ref.ready_count sim.heap with
  | 1 -> pop_value (Heap_ref.pop sim.heap)
  | r ->
      (match sim.choice_view with
      | Some view -> view (Heap_ref.ready_view sim.heap)
      | None -> ());
      pop_value (Heap_ref.pop_kth sim.heap (choose r))

(* No process is ever spawned on the reference, so a drained heap is
   always [Completed]. *)
let run ?max_events sim : Engine.outcome =
  let budget = match max_events with None -> max_int | Some m -> m in
  let rec loop () : Engine.outcome =
    if sim.events >= budget then Event_limit_reached
    else if Heap_ref.is_empty sim.heap then Completed
    else
      let time = sim.heap.data.(0).time in
      let action =
        match sim.chooser with
        | None -> pop_value (Heap_ref.pop sim.heap)
        | Some choose -> pop_chosen sim choose
      in
      sim.now <- time;
      sim.events <- sim.events + 1;
      action ();
      loop ()
  in
  loop ()
