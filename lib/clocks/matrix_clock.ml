type t = { me : int; m : int array array }

let create ~n ~me =
  if n <= 0 then invalid_arg "Matrix_clock.create: dimension must be positive";
  if me < 0 || me >= n then invalid_arg "Matrix_clock.create: owner out of range";
  { me; m = Array.make_matrix n n 0 }

let of_rows ~me rows =
  let n = Array.length rows in
  if n = 0 then invalid_arg "Matrix_clock.of_rows: empty";
  if me < 0 || me >= n then invalid_arg "Matrix_clock.of_rows: owner out of range";
  let check r =
    if Array.length r <> n then invalid_arg "Matrix_clock.of_rows: not square";
    Array.iter
      (fun x -> if x < 0 then invalid_arg "Matrix_clock.of_rows: negative entry")
      r
  in
  Array.iter check rows;
  { me; m = Array.map Array.copy rows }

let dim t = Array.length t.m

let owner t = t.me

let copy t = { me = t.me; m = Array.map Array.copy t.m }

let row t j =
  if j < 0 || j >= dim t then invalid_arg "Matrix_clock.row";
  Vector_clock.of_array t.m.(j)

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

let size_words t = dim t * dim t

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  Array.iteri
    (fun i r ->
      if i > 0 then Format.fprintf ppf "@,";
      Format.fprintf ppf "%s%a"
        (if i = t.me then "*" else " ")
        Vector_clock.pp (Vector_clock.of_array r))
    t.m;
  Format.fprintf ppf "@]"
