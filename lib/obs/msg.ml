(* The one renderer of a wire message's label, and the send–delivery
   pairing. Emit sites pass the message as it is; only printing
   consumers format. *)

let raw locked = if locked then "" else " (raw)"
let acked want_ack = if want_ack then " (acked)" else ""

let label : Wire.t -> string = function
  | Put { op; origin; offset; data; locked; want_ack; _ } ->
      Printf.sprintf "put#%d from P%d -> pub[%d..+%d)%s%s" op origin offset
        (Array.length data) (raw locked) (acked want_ack)
  | Put_ack { op } -> Printf.sprintf "put-ack#%d" op
  | Put_batch { op; origin; parts; locked; want_ack; _ } ->
      let words =
        Array.fold_left (fun acc (_, d) -> acc + Array.length d) 0 parts
      in
      Printf.sprintf "put-batch#%d from P%d (%d parts, %d words)%s%s" op
        origin (Array.length parts) words (raw locked) (acked want_ack)
  | Get { op; origin; offset; len; locked; _ } ->
      Printf.sprintf "get#%d from P%d of pub[%d..+%d)%s" op origin offset len
        (raw locked)
  | Get_reply { op; data; _ } ->
      Printf.sprintf "get-reply#%d (%d words)" op (Array.length data)
  | Atomic { op; origin; offset; kind = Fetch_add d; _ } ->
      Printf.sprintf "atomic#%d from P%d at pub[%d]: fetch_add %d" op origin
        offset d
  | Atomic { op; origin; offset; kind = Compare_and_swap { expected; desired };
      _ } ->
      Printf.sprintf "atomic#%d from P%d at pub[%d]: cas %d->%d" op origin
        offset expected desired
  | Atomic_reply { op; old_value } ->
      Printf.sprintf "atomic-reply#%d old=%d" op old_value
  | Accumulate { op; origin; offset; aop; data; _ } ->
      Printf.sprintf "accumulate#%d from P%d at pub[%d..+%d): %s" op origin
        offset (Array.length data) (Probe.acc_op_name aop)
  | Acc_reply { op; old; _ } ->
      Printf.sprintf "acc-reply#%d (%d words)" op (Array.length old)
  | Lock_request { op; origin; offset; len } ->
      Printf.sprintf "lock#%d from P%d of pub[%d..+%d)" op origin offset len
  | Lock_granted { op; token } ->
      Printf.sprintf "lock-granted#%d tok=%d" op token
  | Unlock { token } -> Printf.sprintf "unlock tok=%d" token
  | Control { op; origin; tag; words; _ } ->
      Printf.sprintf "control#%d from P%d tag=%s (%d words)" op origin tag
        (Array.length words)
  | Control_reply { op; words } ->
      Printf.sprintf "control-reply#%d (%d words)" op (Array.length words)

let op : Wire.t -> int = function
  | Put { op; _ }
  | Put_ack { op }
  | Put_batch { op; _ }
  | Get { op; _ }
  | Get_reply { op; _ }
  | Atomic { op; _ }
  | Atomic_reply { op; _ }
  | Accumulate { op; _ }
  | Acc_reply { op; _ }
  | Lock_request { op; _ }
  | Lock_granted { op; _ }
  | Control { op; _ }
  | Control_reply { op; _ } ->
      op
  | Unlock _ -> -1

(* Sends waiting for their delivery, FIFO per (src, dst, label). *)
type 'a pending = (int * int * string, 'a Queue.t) Hashtbl.t

let pending () = Hashtbl.create 32

let push_sent pending ~src ~dst label x =
  let key = (src, dst, label) in
  match Hashtbl.find_opt pending key with
  | Some q -> Queue.push x q
  | None ->
      let q = Queue.create () in
      Queue.push x q;
      Hashtbl.add pending key q

let pop_sent pending ~src ~dst label =
  match Hashtbl.find_opt pending (src, dst, label) with
  | Some q when not (Queue.is_empty q) -> Some (Queue.pop q)
  | Some _ | None -> None
