(* One granule's access history: a bounded ring of the most recent
   checked accesses (last writer + recent readers), so a race signal can
   name the *other* endpoint, not just the flagged one.

   The ring lives in the granule's [Clock_store.entry], beside its V/W/S
   clocks, so it is keyed exactly like them. Observation-only state: it
   is consulted and updated on the detection path but never feeds back
   into clocks, verdicts or scheduling. *)

open Dsm_clocks

type entry = {
  pid : int;
  kind : Dsm_trace.Event.kind;
  time : float;
  op : int; (* detector checked-op ordinal *)
  event_id : int; (* trace event id, -1 when tracing is off *)
  clock : Vector_clock.t; (* accessor clock snapshot at check time *)
}

(* The [i]-th note (from 0) wrote slot [i mod depth], so the last
   [min n depth] notes are live. Slots no note has reached yet still hold
   the first entry, which filled them. *)
type ring = { slots : entry array; mutable n : int }

(* The ring of every granule nothing was noted into: shared, so it is
   never written ([note] replaces it). *)
let empty = { slots = [||]; n = 0 }

let note ~depth ring entry =
  if depth <= 0 then ring
  else if ring == empty then { slots = Array.make depth entry; n = 1 }
  else begin
    ring.slots.(ring.n mod Array.length ring.slots) <- entry;
    ring.n <- ring.n + 1;
    ring
  end

(* Newest first: slot (n-1) mod depth, then backwards. *)
let history ring =
  let depth = Array.length ring.slots in
  let acc = ref [] in
  for i = min ring.n depth - 1 downto 0 do
    acc := ring.slots.((ring.n - 1 - i) mod depth) :: !acc
  done;
  !acc

let conflicts ~write entry =
  (* two reads never conflict; anything involving a write or RMW does *)
  write || entry.kind <> Dsm_trace.Event.Read

(* The most recent access by another process that conflicts with the
   flagged access and is concurrent with its clock — the race's other
   endpoint. Falls back to the most recent conflicting access by
   another process when no retained entry is concurrent (the real
   endpoint may have been evicted from the bounded ring). *)
let find_prior ring ~pid ~write ~clock =
  let candidates =
    List.filter (fun e -> e.pid <> pid && conflicts ~write e) (history ring)
  in
  match
    List.find_opt (fun e -> Vector_clock.concurrent clock e.clock) candidates
  with
  | Some e -> Some e
  | None -> ( match candidates with e :: _ -> Some e | [] -> None)
