(* Reference oracle for [Vector_clock]: the paper's Algorithms 3-4 taken
   literally. A clock is a plain [int array] of n entries, always dense,
   compared and merged componentwise with no fast path of any kind. The
   adaptive library clock (epoch -> dense) must agree with it on every
   value and every verdict. *)

open Dsm_clocks

type t = int array

let create ~n = Array.make n 0

let copy = Array.copy

let tick c ~me = c.(me) <- c.(me) + 1

(* Algorithm 4 (max_clock), in place. *)
let merge_into ~into src =
  Array.iteri (fun i x -> if x > into.(i) then into.(i) <- x) src

(* Algorithm 3: Equal, Before, After or Concurrent from the componentwise
   comparison. *)
let compare a b : Order.t =
  let lt = ref false and gt = ref false in
  Array.iteri
    (fun i x ->
      if x < b.(i) then lt := true else if x > b.(i) then gt := true)
    a;
  match (!lt, !gt) with
  | false, false -> Order.Equal
  | true, false -> Order.Before
  | false, true -> Order.After
  | true, true -> Order.Concurrent

let leq a b =
  match compare a b with
  | Order.Equal | Order.Before -> true
  | Order.After | Order.Concurrent -> false

let reset c = Array.fill c 0 (Array.length c) 0

let load_words c w ~off = Array.blit w off c 0 (Array.length c)

let merge_words ~into w ~off =
  Array.iteri (fun i x -> if w.(off + i) > x then into.(i) <- w.(off + i)) into

(* The detector signals a race exactly when the accessor's clock and the
   datum's clock are incomparable (Lemma 1). Every signal of [report]
   must therefore hold two clocks the reference calls [Concurrent]. *)
let signals_concurrent report =
  List.for_all
    (fun (r : Dsm_core.Report.race) ->
      compare
        (Vector_clock.to_array r.accessor_clock)
        (Vector_clock.to_array r.datum_clock)
      = Order.Concurrent)
    (Dsm_core.Report.races report)
