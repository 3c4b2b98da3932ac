(* Reference oracle for write-once cells: the list-based ivar that
   preceded the single-waiter state. Waiters are consed as they register
   and reversed on fill, so they resume in registration order. The live
   [Dsm_sim.Ivar] must hand out the same values, resume its readers in
   the same order at the same instants (same event seqs and labels). *)

open Dsm_sim

type 'a state = Empty of ('a -> unit) list | Filled of 'a

type 'a t = { mutable state : 'a state }

let create () = { state = Empty [] }

let fill ~label sim iv v =
  match iv.state with
  | Filled _ -> failwith "Ivar.fill: already filled"
  | Empty waiters ->
      iv.state <- Filled v;
      List.iter
        (fun resume -> Engine.schedule sim ~label (fun () -> resume v))
        (List.rev waiters)

let read sim iv =
  match iv.state with
  | Filled v -> v
  | Empty _ ->
      Engine.await sim (fun resume ->
          match iv.state with
          | Filled v -> resume v
          | Empty waiters -> iv.state <- Empty (resume :: waiters))
