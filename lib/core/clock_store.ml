open Dsm_memory
open Dsm_clocks

type entry = { v : Vector_clock.t; w : Vector_clock.t; s : Vector_clock.t }

(* Granule identity within one node's public segment is (offset, len);
   the hot path keys the table by the pair packed into a single
   immediate int so lookups hash an unboxed key with an int-specialized
   table — no tuple allocation, no polymorphic comparison. *)
let len_bits = 21

let max_len = (1 lsl len_bits) - 1

let pack_key ~offset ~len =
  if len < 0 || len > max_len || offset < 0 || offset > 1 lsl 40 then
    invalid_arg "Clock_store: granule outside packable range";
  (offset lsl len_bits) lor len

let unpack_key key = (key lsr len_bits, key land max_len)

module Int_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  let hash = Hashtbl.hash
end)

type t = {
  node : int;
  clock_dim : int;
  granularity : Config.granularity;
  table : entry Int_tbl.t;
  mutable registered : Addr.region list; (* address-sorted *)
}

let create ~node ~clock_dim ~granularity =
  if clock_dim < 1 then invalid_arg "Clock_store.create: clock_dim";
  {
    node;
    clock_dim;
    granularity;
    table = Int_tbl.create 64;
    registered = [];
  }

let node t = t.node

let register t (r : Addr.region) =
  match t.granularity with
  | Config.Block _ | Config.Word -> ()
  | Config.Variable ->
      if r.base.pid <> t.node then
        invalid_arg "Clock_store.register: region is on another node";
      if not (Addr.is_public r) then
        invalid_arg "Clock_store.register: region is not public";
      if List.exists (fun r' -> Addr.overlap r r') t.registered then
        invalid_arg "Clock_store.register: overlaps a registered variable";
      t.registered <-
        List.sort
          (fun (a : Addr.region) (b : Addr.region) ->
            compare a.base.offset b.base.offset)
          (r :: t.registered)

(* Under [Variable] granularity every accessed word must fall inside a
   registered variable; checked before any granule is visited so a
   failing access signals nothing. The registered list is walked twice —
   no intermediate list is built. *)
let check_covered t (r : Addr.region) =
  let covered_words =
    List.fold_left
      (fun acc (v : Addr.region) ->
        if Addr.overlap r v then
          let lo = max v.base.offset r.base.offset in
          let hi = min (Addr.last_offset v) (Addr.last_offset r) in
          acc + (hi - lo + 1)
        else acc)
      0 t.registered
  in
  if covered_words < r.len then
    failwith
      (Printf.sprintf "Clock_store: access to %s touches unregistered shared data"
         (Addr.to_string r))

let iter_granules t (r : Addr.region) ~f =
  if r.base.pid <> t.node then invalid_arg "Clock_store.granules: wrong node";
  match t.granularity with
  | Config.Word ->
      for offset = r.base.offset to Addr.last_offset r do
        f ~offset ~len:1
      done
  | Config.Block k ->
      let first = r.base.offset / k and last = Addr.last_offset r / k in
      for b = first to last do
        f ~offset:(b * k) ~len:k
      done
  | Config.Variable ->
      check_covered t r;
      List.iter
        (fun (v : Addr.region) ->
          if Addr.overlap r v then f ~offset:v.base.offset ~len:v.len)
        t.registered

let granules t (r : Addr.region) =
  let acc = ref [] in
  iter_granules t r ~f:(fun ~offset ~len ->
      acc :=
        Addr.region ~pid:t.node ~space:Addr.Public ~offset ~len :: !acc);
  List.rev !acc

let entry_at t ~offset ~len =
  let key = pack_key ~offset ~len in
  match Int_tbl.find_opt t.table key with
  | Some e -> e
  | None ->
      let mk () = Vector_clock.create ~n:t.clock_dim in
      let e = { v = mk (); w = mk (); s = mk () } in
      Int_tbl.add t.table key e;
      e

let entry t (g : Addr.region) = entry_at t ~offset:g.base.offset ~len:g.len

let fold_entries t ~init ~f = Int_tbl.fold (fun _ e acc -> f e acc) t.table init

let entries t = Int_tbl.length t.table

(* The paper's accounting (§5.1): V plus the W refinement = 2 clocks per
   datum. The sync clock is an extension and is only charged once an
   atomic has actually touched the datum. Representation-independent:
   an epoch still models a dimension-[clock_dim] vector. *)
let storage_words t =
  fold_entries t ~init:0 ~f:(fun e acc ->
      acc + (2 * t.clock_dim)
      + (if Vector_clock.is_zero e.s then 0 else t.clock_dim))

(* How many of the materialized clocks are still compact (epoch or
   sparse pairs) — the fraction the E7-style storage model could
   exploit; reported by the detector benchmarks. *)
let epoch_clocks t =
  let compact c = Vector_clock.is_epoch c || Vector_clock.is_sparse c in
  fold_entries t ~init:0 ~f:(fun e acc ->
      acc
      + (if compact e.v then 1 else 0)
      + (if compact e.w then 1 else 0)
      + if compact e.s then 1 else 0)
