(* Shared helpers for the test suites. *)

(* [contains haystack needle]: naive substring search, sufficient for
   asserting on rendered output. *)
let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  if nn = 0 then true
  else begin
    let found = ref false in
    let i = ref 0 in
    while (not !found) && !i <= nh - nn do
      if String.sub haystack !i nn = needle then found := true else incr i
    done;
    !found
  end

(* Words allocated while running [f]: minor-heap words plus words
   allocated straight into the major heap (arrays past the minor-heap
   size limit). [Gc.allocated_bytes] sums the same counters, but OCaml
   5.1 under-reports its minor share eightfold, so the minor words come
   from [Gc.minor_words]. *)
let allocated_words f =
  let _, pro0, major0 = Gc.counters () in
  let minor0 = Gc.minor_words () in
  let r = f () in
  let minor1 = Gc.minor_words () in
  let _, pro1, major1 = Gc.counters () in
  (r, minor1 -. minor0 +. (major1 -. major0) -. (pro1 -. pro0))
