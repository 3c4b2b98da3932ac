type t = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
}

let of_array xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Summary.of_array: empty";
  let sum = Array.fold_left ( +. ) 0. xs in
  let mean = sum /. float_of_int n in
  let var =
    if n <= 1 then 0.
    else
      Array.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.)) 0. xs
      /. float_of_int (n - 1)
  in
  {
    count = n;
    mean;
    stddev = sqrt var;
    min = Array.fold_left min xs.(0) xs;
    max = Array.fold_left max xs.(0) xs;
  }

let of_list xs = of_array (Array.of_list xs)

let percentile xs ~p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Summary.percentile: empty";
  if p < 0. || p > 100. then invalid_arg "Summary.percentile: p out of range";
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  let rank = p /. 100. *. float_of_int (n - 1) in
  let lo = int_of_float (floor rank) and hi = int_of_float (ceil rank) in
  let frac = rank -. floor rank in
  (sorted.(lo) *. (1. -. frac)) +. (sorted.(hi) *. frac)
