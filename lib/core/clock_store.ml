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

(* Granules are spread across shards by address range: 64-word ranges
   round-robin over the (power-of-two many) shards, so word-granularity
   sweeps over a large segment split across every table instead of
   loading one, while a single variable-sized granule always lands
   wholly in the shard of its base offset. Each shard also owns a
   scratch clock — the batched coherence path borrows it to fold a
   batch's clocks without allocating. *)
let range_bits = 6

type shard = { table : entry Int_tbl.t; scratch : Vector_clock.t }

type t = {
  node : int;
  clock_dim : int;
  granularity : Config.granularity;
  shard_mask : int;
  shards : shard array;
  mutable registered : Addr.region list; (* address-sorted *)
}

let create ~node ~clock_dim ~granularity ?(shards = 1) () =
  if clock_dim < 1 then invalid_arg "Clock_store.create: clock_dim";
  if shards < 1 || shards land (shards - 1) <> 0 then
    invalid_arg "Clock_store.create: shards must be a positive power of two";
  {
    node;
    clock_dim;
    granularity;
    shard_mask = shards - 1;
    shards =
      Array.init shards (fun _ ->
          {
            table = Int_tbl.create 64;
            scratch = Vector_clock.create ~n:clock_dim;
          });
    registered = [];
  }

let node t = t.node

let shards t = Array.length t.shards

let shard_of t ~offset = (offset lsr range_bits) land t.shard_mask

let shard_scratch t ~offset = t.shards.(shard_of t ~offset).scratch

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
  let table = t.shards.(shard_of t ~offset).table in
  match Int_tbl.find_opt table key with
  | Some e -> e
  | None ->
      let mk () = Vector_clock.create ~n:t.clock_dim in
      let e = { v = mk (); w = mk (); s = mk () } in
      Int_tbl.add table key e;
      e

let entry t (g : Addr.region) = entry_at t ~offset:g.base.offset ~len:g.len

let fold_entries t ~init ~f =
  Array.fold_left
    (fun acc sh -> Int_tbl.fold (fun _ e acc -> f e acc) sh.table acc)
    init t.shards

let entries t =
  Array.fold_left (fun acc sh -> acc + Int_tbl.length sh.table) 0 t.shards

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
