(* The recording buffers are flat int arrays reused across runs (grown
   geometrically, never shrunk): the explorer takes thousands of
   decisions per second and re-listing them per run was the hot
   allocation in the walk loop. Lists are only materialized on demand —
   i.e. for the rare runs that get surfaced to the user. *)

type policy =
  | Random of Dsm_sim.Prng.t
  | Scripted of int array * int  (* decisions, length in use *)

type t = {
  mutable policy : policy;
  mutable taken : int;
  mutable ready_buf : int array;
  mutable chosen_buf : int array;
}

let initial_capacity = 64

let make policy =
  {
    policy;
    taken = 0;
    ready_buf = Array.make initial_capacity 0;
    chosen_buf = Array.make initial_capacity 0;
  }

let scripted decisions =
  let a = Array.of_list decisions in
  make (Scripted (a, Array.length a))

let reset_random t rng =
  t.policy <- Random rng;
  t.taken <- 0

let reset_scripted t decisions =
  let a = Array.of_list decisions in
  t.policy <- Scripted (a, Array.length a);
  t.taken <- 0

(* Replay the decisions currently recorded in [src] — sharing [src]'s
   buffer, no copy. Only valid until [src]'s next reset or growth, which
   is fine: the explorer replays immediately, within the same run slot. *)
let reset_replay_of t ~src =
  if t == src then invalid_arg "Chooser.reset_replay_of: src is self";
  t.policy <- Scripted (src.chosen_buf, src.taken);
  t.taken <- 0

let ensure_capacity t =
  let cap = Array.length t.ready_buf in
  if t.taken = cap then begin
    let grow a = Array.append a (Array.make cap 0) in
    t.ready_buf <- grow t.ready_buf;
    t.chosen_buf <- grow t.chosen_buf
  end

let fn t ready =
  let k =
    match t.policy with
    | Random rng -> Dsm_sim.Prng.int rng ready
    | Scripted (s, len) ->
        if t.taken < len then
          let k = s.(t.taken) in
          if k < 0 then 0 else if k >= ready then ready - 1 else k
        else 0
  in
  ensure_capacity t;
  t.ready_buf.(t.taken) <- ready;
  t.chosen_buf.(t.taken) <- k;
  t.taken <- t.taken + 1;
  k

let choice_points t = t.taken

let ready_at t i =
  if i < 0 || i >= t.taken then invalid_arg "Chooser.ready_at";
  t.ready_buf.(i)

let chosen_at t i =
  if i < 0 || i >= t.taken then invalid_arg "Chooser.chosen_at";
  t.chosen_buf.(i)

let decisions t = List.init t.taken (fun i -> t.chosen_buf.(i))

let trace t = List.init t.taken (fun i -> (t.ready_buf.(i), t.chosen_buf.(i)))
