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

(* One note, overwritten in place once the ring is full. Its time lives
   in the ring's float array, so a note boxes no float. *)
type slot = {
  mutable s_pid : int;
  mutable s_kind : Dsm_trace.Event.kind;
  mutable s_op : int;
  mutable s_event_id : int;
  s_clock : Vector_clock.t;
}

(* The [i]-th note (from 0) wrote slot [i mod depth], so the last
   [min n depth] notes are live. Slots no note has reached yet still hold
   the first note's slot, which filled them. *)
type ring = { slots : slot array; times : float array; mutable n : int }

(* The ring of every granule nothing was noted into: shared, so it is
   never written ([note] replaces it). *)
let empty = { slots = [||]; times = [||]; n = 0 }

let fresh_slot ~pid ~kind ~op ~event_id clock =
  {
    s_pid = pid;
    s_kind = kind;
    s_op = op;
    s_event_id = event_id;
    s_clock = Vector_clock.copy clock;
  }

let note ~depth ring ~pid ~kind ~time ~op ~event_id clock =
  if depth <= 0 then ring
  else begin
    let ring =
      if ring == empty then
        {
          slots = Array.make depth (fresh_slot ~pid ~kind ~op ~event_id clock);
          times = Array.make depth time;
          n = 0;
        }
      else ring
    in
    let i = ring.n mod Array.length ring.slots in
    if ring.n = 0 then ()
    else if ring.n < Array.length ring.slots then
      ring.slots.(i) <- fresh_slot ~pid ~kind ~op ~event_id clock
    else begin
      let s = ring.slots.(i) in
      s.s_pid <- pid;
      s.s_kind <- kind;
      s.s_op <- op;
      s.s_event_id <- event_id;
      Vector_clock.assign ~into:s.s_clock clock
    end;
    ring.times.(i) <- time;
    ring.n <- ring.n + 1;
    ring
  end

(* An immutable copy of slot [i]: what leaves the ring. *)
let entry_of ring i =
  let s = ring.slots.(i) in
  {
    pid = s.s_pid;
    kind = s.s_kind;
    time = ring.times.(i);
    op = s.s_op;
    event_id = s.s_event_id;
    clock = Vector_clock.copy s.s_clock;
  }

(* Slot of the [age]-th newest live note (0 = newest). *)
let slot_at ring age = (ring.n - 1 - age) mod Array.length ring.slots

let live ring = min ring.n (Array.length ring.slots)

let history ring =
  let acc = ref [] in
  for age = live ring - 1 downto 0 do
    acc := entry_of ring (slot_at ring age) :: !acc
  done;
  !acc

let conflicts ~write (s : slot) =
  (* two reads never conflict; anything involving a write or RMW does *)
  write || s.s_kind <> Dsm_trace.Event.Read

(* The most recent access by another process that conflicts with the
   flagged access and is concurrent with its clock — the race's other
   endpoint. Falls back to the most recent conflicting access by
   another process when no retained entry is concurrent (the real
   endpoint may have been evicted from the bounded ring). Scans the
   slots newest first and copies only the answer. *)
let find_prior ring ~pid ~write ~clock =
  let concurrent = ref (-1) and fallback = ref (-1) in
  let age = ref 0 in
  while !concurrent < 0 && !age < live ring do
    let i = slot_at ring !age in
    let s = ring.slots.(i) in
    if s.s_pid <> pid && conflicts ~write s then begin
      if !fallback < 0 then fallback := i;
      if Vector_clock.concurrent clock s.s_clock then concurrent := i
    end;
    incr age
  done;
  let i = if !concurrent >= 0 then !concurrent else !fallback in
  if i >= 0 then Some (entry_of ring i) else None
