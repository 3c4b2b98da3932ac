type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create ~seed = { state = Int64.of_int seed }

let reseed g ~seed = g.state <- Int64.of_int seed

(* splitmix64 finalizer (Steele, Lea & Flood 2014). *)
let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
            0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
            0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let next_int64 g =
  g.state <- Int64.add g.state golden_gamma;
  mix g.state

let split g =
  let seed = next_int64 g in
  { state = mix seed }

(* In-place [split]: after [resplit src ~into], [into] is in exactly the
   state a fresh [split src] would have returned, and [src] has advanced
   by the same one step — so a long-lived component can reuse its
   generator object across arena resets bit-identically. *)
let resplit src ~into = into.state <- mix (next_int64 src)

let int g bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Take the top bits and reduce; bias is negligible for bound << 2^63. *)
  let x = Int64.shift_right_logical (next_int64 g) 1 in
  Int64.to_int (Int64.rem x (Int64.of_int bound))

let float g bound =
  (* 53 uniform bits mapped to [0,1). *)
  let x = Int64.shift_right_logical (next_int64 g) 11 in
  Int64.to_float x /. 9007199254740992.0 *. bound

let bool g = Int64.logand (next_int64 g) 1L = 1L

let bernoulli g ~p =
  let p = if p < 0. then 0. else if p > 1. then 1. else p in
  float g 1.0 < p

let exponential g ~mean =
  if mean <= 0. then invalid_arg "Prng.exponential: mean must be positive";
  let u = float g 1.0 in
  (* u = 0 would give infinity; nudge into (0,1]. *)
  let u = if u <= 0. then epsilon_float else u in
  -.mean *. log u
