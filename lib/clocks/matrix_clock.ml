type t = { me : int; m : int array array }

let create ~n ~me =
  if n <= 0 then invalid_arg "Matrix_clock.create: dimension must be positive";
  if me < 0 || me >= n then invalid_arg "Matrix_clock.create: owner out of range";
  { me; m = Array.make_matrix n n 0 }

let dim t = Array.length t.m

let owner t = t.me

let tick t = t.m.(t.me).(t.me) <- t.m.(t.me).(t.me) + 1

let entry t i j =
  if i < 0 || i >= dim t || j < 0 || j >= dim t then
    invalid_arg "Matrix_clock.entry";
  t.m.(i).(j)

let observe t remote =
  let n = dim t in
  if dim remote <> n then invalid_arg "Matrix_clock.observe: dimension mismatch";
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if remote.m.(i).(j) > t.m.(i).(j) then t.m.(i).(j) <- remote.m.(i).(j)
    done
  done;
  (* The sender's principal row is causal history the receiver now shares. *)
  let own = t.m.(t.me) and theirs = remote.m.(remote.me) in
  for j = 0 to n - 1 do
    if theirs.(j) > own.(j) then own.(j) <- theirs.(j)
  done
