type 'a state = Empty of ('a -> unit) list | Filled of 'a

type 'a t = { mutable state : 'a state }

let create () = { state = Empty [] }

let peek iv = match iv.state with Filled v -> Some v | Empty _ -> None

let fill ?label sim iv v =
  match iv.state with
  | Filled _ -> failwith "Ivar.fill: already filled"
  | Empty waiters ->
      iv.state <- Filled v;
      (* Resume in registration order: waiters were consed, so reverse. *)
      List.iter
        (fun resume -> Engine.schedule sim ?label (fun () -> resume v))
        (List.rev waiters)

let read sim iv =
  match iv.state with
  | Filled v -> v
  | Empty _ ->
      Engine.await sim (fun resume ->
          match iv.state with
          | Filled v -> resume v
          | Empty waiters -> iv.state <- Empty (resume :: waiters))

let waiters iv =
  match iv.state with Filled _ -> 0 | Empty ws -> List.length ws
