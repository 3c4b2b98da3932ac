(* A bounded flight recorder over the probe bus: a fixed-capacity ring
   of the most recent events and their times, O(1) append, reset in
   place when the explorer starts a new run in the same arena. *)

let capacity = 256

type t = {
  bus : Probe.t; (* read for each event's time *)
  slots : Probe.event array; (* only indices < min total capacity are live *)
  times : float array; (* [times.(i)]: when [slots.(i)] happened *)
  mutable total : int; (* events accepted since the last reset *)
  mutable head : int; (* next slot to write; always total mod capacity *)
}

(* Any event works as the fill value; slots past [total] are never read. *)
let filler = Probe.Run_begin { run = -1 }

(* Run markers are control events, and the apply class is not read:
   neither is window content (flight.mli). *)
let sink t ev =
  match ev with
  | Probe.Run_begin _ ->
      t.total <- 0;
      t.head <- 0
  | Probe.Run_end _ | Probe.Write_applied _ | Probe.Read_served _ -> ()
  | ev ->
      t.slots.(t.head) <- ev;
      t.times.(t.head) <- Probe.now t.bus;
      let head = t.head + 1 in
      t.head <- (if head = capacity then 0 else head);
      t.total <- t.total + 1

let attach bus =
  let slots = Array.make capacity filler in
  let t = { bus; slots; times = Array.make capacity 0.; total = 0; head = 0 } in
  Probe.attach bus Probe.(all land lnot apply) (sink t);
  t

let events t =
  let n = min t.total capacity in
  let first = t.total - n in
  List.init n (fun i ->
      let j = (first + i) mod capacity in
      (t.times.(j), t.slots.(j)))
