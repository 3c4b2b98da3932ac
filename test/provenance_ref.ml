(* Reference oracle for the per-granule access history: the table-based
   store the detector kept beside its clock store before each granule's
   history moved into the granule's own clock-store entry. One
   polymorphic hashtable per node, keyed by (offset, len) and grown one
   node at a time; each granule's ring holds optional entries. The live
   history must give the same newest-first history, the same prior
   endpoint and the same granule walk. *)

open Dsm_clocks

type entry = Dsm_core.Provenance.entry

type ring = { slots : entry option array; mutable n : int }

type t = { depth : int; mutable nodes : (int * int, ring) Hashtbl.t array }

let create ~depth =
  if depth < 0 then invalid_arg "Provenance.create: negative depth";
  { depth; nodes = [||] }

let find t ~node ~offset ~len =
  if node >= Array.length t.nodes then None
  else Hashtbl.find_opt t.nodes.(node) (offset, len)

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
          Hashtbl.add t.nodes.(node) (offset, len) r;
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
      for i = live - 1 downto 0 do
        match ring.slots.((ring.n - 1 - i) mod depth) with
        | Some e -> acc := e :: !acc
        | None -> ()
      done;
      !acc

let conflicts ~write (e : entry) = write || e.kind <> Dsm_trace.Event.Read

let find_prior t ~node ~offset ~len ~pid ~write ~clock =
  let candidates =
    List.filter
      (fun (e : entry) -> e.pid <> pid && conflicts ~write e)
      (history t ~node ~offset ~len)
  in
  match
    List.find_opt
      (fun (e : entry) -> Vector_clock.concurrent clock e.clock)
      candidates
  with
  | Some e -> Some e
  | None -> ( match candidates with e :: _ -> Some e | [] -> None)

let iter_granules t ~f =
  Array.iteri
    (fun node granules ->
      let keys = Hashtbl.fold (fun k _ acc -> k :: acc) granules [] in
      List.iter
        (fun (offset, len) ->
          f ~node ~offset ~len (history t ~node ~offset ~len))
        (List.sort compare keys))
    t.nodes
