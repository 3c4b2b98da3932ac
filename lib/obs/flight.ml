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

(* Run markers are control events, not window content (flight.mli). *)
let sink t ev =
  match ev with
  | Probe.Run_begin _ ->
      t.total <- 0;
      t.head <- 0
  | Probe.Run_end _ -> ()
  | ev ->
      t.slots.(t.head) <- ev;
      let head = t.head + 1 in
      t.head <- (if head = capacity then 0 else head);
      t.total <- t.total + 1

let attach bus =
  let t = { slots = Array.make capacity filler; total = 0; head = 0 } in
  Probe.attach bus (sink t);
  t

let events t =
  let n = min t.total capacity in
  let first = t.total - n in
  List.init n (fun i -> t.slots.((first + i) mod capacity))
