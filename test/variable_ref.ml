(* Reference oracle for [Clock_store]'s registered variables under
   [Config.Variable] granularity: the address-sorted list the store used
   before it kept an index. [register] re-sorts the list after an
   overlap scan; [iter_granules] checks coverage with one fold over every
   variable, then visits the overlapping ones with a second walk. The
   live store's granule walk must visit the same granules in the same
   order and raise the same exceptions with the same messages. *)

open Dsm_memory

type t = { node : int; mutable registered : Addr.region list }

let create ~node = { node; registered = [] }

let register t (r : Addr.region) =
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
  check_covered t r;
  List.iter
    (fun (v : Addr.region) ->
      if Addr.overlap r v then f ~offset:v.base.offset ~len:v.len)
    t.registered
