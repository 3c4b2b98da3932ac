type t = { mutable time : int }

let create () = { time = 0 }

let copy c = { time = c.time }

let value c = c.time

let tick c =
  c.time <- c.time + 1;
  c.time

let observe c remote =
  c.time <- max c.time remote + 1;
  c.time

let pp ppf c = Format.fprintf ppf "L:%d" c.time
