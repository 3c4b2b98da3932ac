(* Per-granule access history: a bounded ring of the most recent checked
   accesses (last writer + recent readers), so a race signal can name
   the *other* endpoint, not just the flagged one.

   Keyed exactly like the granule clocks: (node, offset, len) — one
   history per granule the detector checks. Observation-only state: it
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

type ring = { slots : entry option array; mutable n : int }

type t = {
  depth : int;
  mutable nodes : (int, ring) Hashtbl.t array;
      (* per node, keyed like the granule clocks by
         [Clock_store.pack_key ~offset ~len] *)
}

let create ~depth =
  if depth < 0 then invalid_arg "Provenance.create: negative depth";
  { depth; nodes = [||] }

let depth t = t.depth

let find t ~node ~offset ~len =
  if node >= Array.length t.nodes then None
  else Hashtbl.find_opt t.nodes.(node) (Clock_store.pack_key ~offset ~len)

let note t ~node ~offset ~len entry =
  if t.depth > 0 then begin
    let ring =
      match find t ~node ~offset ~len with
      | Some r -> r
      | None ->
          let have = Array.length t.nodes in
          if node >= have then
            t.nodes <-
              Array.append t.nodes
                (Array.init (node + 1 - have) (fun _ -> Hashtbl.create 16));
          let r = { slots = Array.make t.depth None; n = 0 } in
          Hashtbl.add t.nodes.(node) (Clock_store.pack_key ~offset ~len) r;
          r
    in
    ring.slots.(ring.n mod t.depth) <- Some entry;
    ring.n <- ring.n + 1
  end

(* Newest first. *)
let history t ~node ~offset ~len =
  match find t ~node ~offset ~len with
  | None -> []
  | Some ring ->
      let depth = Array.length ring.slots in
      let live = min ring.n depth in
      let acc = ref [] in
      (* newest is slot (n-1) mod depth, then backwards *)
      for i = live - 1 downto 0 do
        match ring.slots.((ring.n - 1 - i) mod depth) with
        | Some e -> acc := e :: !acc
        | None -> ()
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
let find_prior t ~node ~offset ~len ~pid ~write ~clock =
  let entries = history t ~node ~offset ~len in
  let candidates =
    List.filter (fun e -> e.pid <> pid && conflicts ~write e) entries
  in
  match
    List.find_opt (fun e -> Vector_clock.concurrent clock e.clock) candidates
  with
  | Some e -> Some e
  | None -> ( match candidates with e :: _ -> Some e | [] -> None)

let iter_granules t ~f =
  Array.iteri
    (fun node granules ->
      let keys = Hashtbl.fold (fun k _ acc -> k :: acc) granules [] in
      List.iter
        (fun key ->
          let offset, len = Clock_store.unpack_key key in
          f ~node ~offset ~len (history t ~node ~offset ~len))
        (List.sort compare keys))
    t.nodes
