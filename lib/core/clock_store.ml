open Dsm_memory
open Dsm_clocks
module Int_tbl = Dsm_sim.Int_tbl

type entry = {
  v : Vector_clock.t;
  w : Vector_clock.t;
  mutable s : Vector_clock.t;
  mutable vs : Stamp.t;
  mutable ws : Stamp.t;
  mutable ss : Stamp.t;
  mutable history : Provenance.ring;
}

(* Granule identity within one node's public segment is (offset, len);
   the hot path keys the table by the pair packed into a single
   immediate int so lookups hash an unboxed key in {!Dsm_sim.Int_tbl} —
   no tuple allocation, no polymorphic hash or comparison. *)
let len_bits = 21

let max_len = (1 lsl len_bits) - 1

let pack_key ~offset ~len =
  if len < 0 || len > max_len || offset < 0 || offset > 1 lsl 40 then
    invalid_arg "Clock_store: granule outside packable range";
  (offset lsl len_bits) lor len

let unpack_key key = (key lsr len_bits, key land max_len)

type t = {
  node : int;
  clock_dim : int;
  granularity : Config.granularity;
  table : entry Int_tbl.t;
  (* The registered variables, address-sorted: variable [i] covers
     [var_off.(i) .. var_off.(i) + var_len.(i) - 1] for [i < vars].
     Variables are disjoint, so their ends ascend with their starts and
     one binary search finds the first variable an access can touch.
     The arrays start empty and double from capacity 1. *)
  mutable var_off : int array;
  mutable var_len : int array;
  mutable vars : int;
  (* the S clock of every entry no release has touched: zero, and never
     written *)
  zero : Vector_clock.t;
}

let create ~node ~clock_dim ~granularity =
  if clock_dim < 1 then invalid_arg "Clock_store.create: clock_dim";
  {
    node;
    clock_dim;
    granularity;
    (* the smallest table: a node may hold a single variable, and the
       table doubles as its granules are first touched *)
    table = Int_tbl.create 0;
    var_off = [||];
    var_len = [||];
    vars = 0;
    zero = Vector_clock.create ~n:clock_dim;
  }

(* The index of the first variable that ends at or after [offset] —
   [t.vars] if none does. Every variable before it lies wholly below
   [offset]. *)
let first_ending_after t offset =
  let lo = ref 0 and hi = ref t.vars in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if t.var_off.(mid) + t.var_len.(mid) > offset then hi := mid
    else lo := mid + 1
  done;
  !lo

let register t (r : Addr.region) =
  match t.granularity with
  | Config.Block _ | Config.Word -> ()
  | Config.Variable ->
      if r.base.pid <> t.node then
        invalid_arg "Clock_store.register: region is on another node";
      if not (Addr.is_public r) then
        invalid_arg "Clock_store.register: region is not public";
      let i = first_ending_after t r.base.offset in
      if i < t.vars && t.var_off.(i) <= Addr.last_offset r then
        invalid_arg "Clock_store.register: overlaps a registered variable";
      if t.vars = Array.length t.var_off then begin
        let grow a =
          let a' = Array.make (max 1 (2 * t.vars)) 0 in
          Array.blit a 0 a' 0 t.vars;
          a'
        in
        t.var_off <- grow t.var_off;
        t.var_len <- grow t.var_len
      end;
      Array.blit t.var_off i t.var_off (i + 1) (t.vars - i);
      Array.blit t.var_len i t.var_len (i + 1) (t.vars - i);
      t.var_off.(i) <- r.base.offset;
      t.var_len.(i) <- r.len;
      t.vars <- t.vars + 1

(* ---------- granule walk ----------

   An access's granules in address order, through an immediate-int
   cursor: the granule's packed (offset, len) key, or -1 past the last.
   The caller loops, so a walk allocates no closure. Each step is
   computed from the granule just visited, never from an index, so a
   variable registered while the caller was suspended (an
   explicit-transport control round trip) cannot disturb the walk: no
   new variable can overlap the access, which is fully covered. *)

(* The granule of variable [i] if it starts at or before [last]. *)
let variable_granule t i ~last =
  if i < t.vars && t.var_off.(i) <= last then
    pack_key ~offset:t.var_off.(i) ~len:t.var_len.(i)
  else -1

let first_granule t (r : Addr.region) =
  if r.base.pid <> t.node then invalid_arg "Clock_store.granules: wrong node";
  match t.granularity with
  | Config.Word -> pack_key ~offset:r.base.offset ~len:1
  | Config.Block k -> pack_key ~offset:(r.base.offset / k * k) ~len:k
  | Config.Variable ->
      (* Every accessed word must fall inside a registered variable;
         checked before any granule is visited so a failing access
         signals nothing. Variables are public, so a private access
         covers nothing. *)
      let last = Addr.last_offset r in
      let first = first_ending_after t r.base.offset in
      let covered = ref 0 and i = ref first in
      if Addr.is_public r then
        while !i < t.vars && t.var_off.(!i) <= last do
          let lo = max t.var_off.(!i) r.base.offset
          and hi = min (t.var_off.(!i) + t.var_len.(!i) - 1) last in
          covered := !covered + (hi - lo + 1);
          incr i
        done;
      if !covered < r.len then
        failwith
          (Printf.sprintf
             "Clock_store: access to %s touches unregistered shared data"
             (Addr.to_string r));
      variable_granule t first ~last

let granule_offset g = g lsr len_bits

let granule_len g = g land max_len

let next_granule t (r : Addr.region) g =
  let next = granule_offset g + granule_len g and last = Addr.last_offset r in
  if next > last then -1
  else
    match t.granularity with
    | Config.Word | Config.Block _ -> pack_key ~offset:next ~len:(granule_len g)
    | Config.Variable -> variable_granule t (first_ending_after t next) ~last

let entry_at t ~offset ~len =
  let key = pack_key ~offset ~len in
  match Int_tbl.find t.table key with
  | e -> e
  | exception Not_found ->
      let mk () = Vector_clock.create ~n:t.clock_dim in
      let e =
        {
          v = mk ();
          w = mk ();
          s = t.zero;
          vs = Stamp.none;
          ws = Stamp.none;
          ss = Stamp.none;
          history = Provenance.empty;
        }
      in
      Int_tbl.replace t.table key e;
      e

let sync_clock t e =
  if e.s == t.zero then e.s <- Vector_clock.create ~n:t.clock_dim;
  e.s

let fold_entries t ~init ~f = Int_tbl.fold (fun _ e acc -> f e acc) t.table init

(* Packed keys sort like their (offset, len) pairs. *)
let iter_history t ~f =
  let keys = Int_tbl.fold (fun k _ acc -> k :: acc) t.table [] in
  List.iter
    (fun key ->
      match Provenance.history (Int_tbl.find t.table key).history with
      | [] -> ()
      | entries ->
          let offset, len = unpack_key key in
          f ~offset ~len entries)
    (List.sort Int.compare keys)

(* The paper's accounting (§5.1): V plus the W refinement = 2 clocks per
   datum. The sync clock is an extension and is only charged once an
   atomic has actually touched the datum; the access history is
   observation state and is never charged. Representation-independent:
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
