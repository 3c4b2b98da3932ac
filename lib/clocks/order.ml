type t = Equal | Before | After | Concurrent

let concurrent = function Concurrent -> true | Equal | Before | After -> false

let flip = function
  | Before -> After
  | After -> Before
  | (Equal | Concurrent) as o -> o
