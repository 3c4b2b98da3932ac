(* A stamp packs the owner in the low [owner_bits] bits and its own
   entry above them; -1 is no stamp. *)
type t = int

let none = -1

let owner_bits = 24

let owner_mask = (1 lsl owner_bits) - 1

let leq st c =
  st >= 0 && st lsr owner_bits <= Vector_clock.entry c (st land owner_mask)

(* Without [cur] to give, whether [into] reached [src] is moot: a
   plain merge, and [into] keeps [stamp] only if nothing rose. *)
let merge_into ~into ~stamp src ~cur =
  if leq stamp src then begin
    Vector_clock.assign ~into src;
    cur
  end
  else
    let gen = Vector_clock.generation into in
    if cur >= 0 && Vector_clock.merge_into_equal ~into src then cur
    else begin
      if cur < 0 then Vector_clock.merge_into ~into src;
      if Vector_clock.generation into = gen then stamp else none
    end

(* [gens.(p)] is clock [p]'s generation at its last tick and
   [stamps.(p)] the stamp that tick gave it. *)
type owners = {
  clocks : Vector_clock.t array;
  gens : int array;
  stamps : int array;
}

let owners clocks =
  let n = Array.length clocks in
  if n > owner_mask + 1 then invalid_arg "Stamp.owners: too many clocks";
  { clocks; gens = Array.make n (-1); stamps = Array.make n none }

let tick o p =
  let c = o.clocks.(p) in
  Vector_clock.tick c ~me:p;
  o.gens.(p) <- Vector_clock.generation c;
  o.stamps.(p) <- (Vector_clock.entry c p lsl owner_bits) lor p

let current o p =
  if Vector_clock.generation o.clocks.(p) = o.gens.(p) then o.stamps.(p)
  else none
