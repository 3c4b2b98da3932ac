(* Sample summaries: median, quartiles and the sample count. *)

type t = { median : float; p25 : float; p75 : float; n : int }

let pct xs p = Dsm_stats.Summary.percentile (Array.of_list xs) ~p

let of_list xs =
  { median = pct xs 50.; p25 = pct xs 25.; p75 = pct xs 75.; n = List.length xs }

(* A value measured exactly (simulated or counted): no spread. *)
let exact ?(n = 1) v = { median = v; p25 = v; p75 = v; n }

let scale s k = { s with median = s.median *. k; p25 = s.p25 *. k; p75 = s.p75 *. k }

(* Quartile spread as a share of the median. *)
let spread s =
  if s.median = 0. then 0. else (s.p75 -. s.p25) /. Float.abs s.median

let to_json ~unit_ s =
  Json.obj
    [
      ("unit", Json.str unit_);
      ("median", Json.num s.median);
      ("p25", Json.num s.p25);
      ("p75", Json.num s.p75);
      ("n", Json.int s.n);
    ]

let of_json j =
  let f k = Json.to_num (Json.field k j) in
  { median = f "median"; p25 = f "p25"; p75 = f "p75"; n = int_of_float (f "n") }
