(* A protocol message as plain fields, and the one renderer of its
   label. Emit sites fill the record; only printing consumers format. *)

type kind =
  | Put
  | Put_ack
  | Put_batch
  | Get
  | Get_reply
  | Fetch_add
  | Cas
  | Atomic_reply
  | Accumulate
  | Acc_reply
  | Lock_request
  | Lock_granted
  | Unlock
  | Control
  | Control_reply

type t = {
  kind : kind;
  op : int;
  origin : int;
  offset : int;
  len : int;
  parts : int;
  arg : int;
  arg2 : int;
  locked : bool;
  acked : bool;
  name : string;
}

let none =
  {
    kind = Put;
    op = 0;
    origin = 0;
    offset = 0;
    len = 0;
    parts = 0;
    arg = 0;
    arg2 = 0;
    locked = false;
    acked = false;
    name = "";
  }

let raw m = if m.locked then "" else " (raw)"
let acked m = if m.acked then " (acked)" else ""

let label m =
  match m.kind with
  | Put ->
      Printf.sprintf "put#%d from P%d -> pub[%d..+%d)%s%s" m.op m.origin
        m.offset m.len (raw m) (acked m)
  | Put_ack -> Printf.sprintf "put-ack#%d" m.op
  | Put_batch ->
      Printf.sprintf "put-batch#%d from P%d (%d parts, %d words)%s%s" m.op
        m.origin m.parts m.len (raw m) (acked m)
  | Get ->
      Printf.sprintf "get#%d from P%d of pub[%d..+%d)%s" m.op m.origin
        m.offset m.len (raw m)
  | Get_reply -> Printf.sprintf "get-reply#%d (%d words)" m.op m.len
  | Fetch_add ->
      Printf.sprintf "atomic#%d from P%d at pub[%d]: fetch_add %d" m.op
        m.origin m.offset m.arg
  | Cas ->
      Printf.sprintf "atomic#%d from P%d at pub[%d]: cas %d->%d" m.op m.origin
        m.offset m.arg m.arg2
  | Atomic_reply -> Printf.sprintf "atomic-reply#%d old=%d" m.op m.arg
  | Accumulate ->
      Printf.sprintf "accumulate#%d from P%d at pub[%d..+%d): %s" m.op
        m.origin m.offset m.len m.name
  | Acc_reply -> Printf.sprintf "acc-reply#%d (%d words)" m.op m.len
  | Lock_request ->
      Printf.sprintf "lock#%d from P%d of pub[%d..+%d)" m.op m.origin m.offset
        m.len
  | Lock_granted -> Printf.sprintf "lock-granted#%d tok=%d" m.op m.arg
  | Unlock -> Printf.sprintf "unlock tok=%d" m.arg
  | Control ->
      Printf.sprintf "control#%d from P%d tag=%s (%d words)" m.op m.origin
        m.name m.len
  | Control_reply -> Printf.sprintf "control-reply#%d (%d words)" m.op m.len

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
