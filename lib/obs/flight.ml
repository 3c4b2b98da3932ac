(* A bounded flight recorder over the probe bus: a fixed-capacity ring
   of the most recent events, O(1) append, reset in place when the
   explorer starts a new run in the same arena. *)

let capacity = 256

type t = {
  slots : Probe.event array; (* only indices < min total capacity are live *)
  mutable total : int; (* events accepted since the last reset *)
  mutable head : int; (* next slot to write; always total mod capacity *)
}

(* Any event works as the fill value; slots past [total] are never read. *)
let filler = Probe.Run_begin { run = -1 }

let reset t =
  t.total <- 0;
  t.head <- 0

(* [engine.step], the per-event firehose, explains nothing: dropping it
   lets the window cover meaningful traffic and keeps the attach cost
   inside the probe-overhead gate. *)
let record t = function
  | Probe.Engine_step _ -> ()
  | ev ->
      t.slots.(t.head) <- ev;
      let head = t.head + 1 in
      t.head <- (if head = capacity then 0 else head);
      t.total <- t.total + 1

(* The sink is arena-reset-aware: the explorer emits [Run_begin] at the
   top of every run it executes in a (possibly reused) arena, so the
   window always covers exactly the current run. The run-boundary
   markers themselves are control events for the recorder, not window
   content — they carry the arena-global run counter, which would make
   two otherwise identical runs leave different windows. *)
let sink t ev =
  match ev with
  | Probe.Run_begin _ -> reset t
  | Probe.Run_end _ -> ()
  | ev -> record t ev

let attach bus =
  let t = { slots = Array.make capacity filler; total = 0; head = 0 } in
  Probe.attach bus (sink t);
  t

let events t =
  let n = min t.total capacity in
  let first = t.total - n in
  List.init n (fun i -> t.slots.((first + i) mod capacity))
