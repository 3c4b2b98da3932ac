type t = Equal | Before | After | Concurrent

let equal (a : t) (b : t) = a = b

let concurrent = function Concurrent -> true | Equal | Before | After -> false

let flip = function
  | Before -> After
  | After -> Before
  | (Equal | Concurrent) as o -> o

let to_string = function
  | Equal -> "equal"
  | Before -> "before"
  | After -> "after"
  | Concurrent -> "concurrent"

let pp ppf o = Format.pp_print_string ppf (to_string o)
