(* Most ivars are read by one process, so a lone waiter has a state of
   its own and only a second one starts a list. A waiter is the unit
   resumer its [read] registered: the value is read back from the
   filled cell once the process runs, so a fill schedules each resumer
   as it is, with no closure around it. *)
type 'a state =
  | Empty
  | Waiting of (unit -> unit)
  | Waiting_many of (unit -> unit) list  (* two or more, newest first *)
  | Filled of 'a

type 'a t = { mutable state : 'a state }

let create () = { state = Empty }

let fill ~label sim iv v =
  match iv.state with
  | Filled _ -> failwith "Ivar.fill: already filled"
  | Empty -> iv.state <- Filled v
  | Waiting resume ->
      iv.state <- Filled v;
      Engine.schedule_at sim ~at:(Engine.now sim) ~label resume
  | Waiting_many waiters ->
      iv.state <- Filled v;
      (* Resume in registration order: waiters were consed, so reverse. *)
      let at = Engine.now sim in
      List.iter (fun resume -> Engine.schedule_at sim ~at ~label resume)
        (List.rev waiters)

let rec read sim iv =
  match iv.state with
  | Filled v -> v
  | _ ->
      Engine.await sim (fun resume ->
          match iv.state with
          | Filled _ -> resume ()
          | Empty -> iv.state <- Waiting resume
          | Waiting first -> iv.state <- Waiting_many [ resume; first ]
          | Waiting_many waiters ->
              iv.state <- Waiting_many (resume :: waiters));
      read sim iv
