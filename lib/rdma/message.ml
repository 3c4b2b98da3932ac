type t =
  | Put of {
      op : int;
      origin : int;
      offset : int;
      data : int array;
      extra_words : int;
      locked : bool;
      want_ack : bool;
    }
  | Put_ack of { op : int }
  | Put_batch of {
      op : int;
      origin : int;
      parts : (int * int array) array; (* (offset, data), ascending *)
      extra_words : int;
      locked : bool;
      want_ack : bool;
    }
  | Get of {
      op : int;
      origin : int;
      offset : int;
      len : int;
      extra_words : int;
      locked : bool;
    }
  | Get_reply of { op : int; data : int array; extra_words : int }
  | Atomic of {
      op : int;
      origin : int;
      offset : int;
      kind : atomic_kind;
      extra_words : int;
    }
  | Atomic_reply of { op : int; old_value : int }
  | Accumulate of {
      op : int;
      origin : int;
      offset : int;
      aop : acc_op;
      data : int array;
      extra_words : int;
    }
  | Acc_reply of { op : int; old : int array; extra_words : int }
  | Lock_request of { op : int; origin : int; offset : int; len : int }
  | Lock_granted of { op : int; token : int }
  | Unlock of { token : int }
  | Control of {
      op : int;
      origin : int;
      tag : string;
      words : int array;
      want_reply : bool;
    }
  | Control_reply of { op : int; words : int array }

and atomic_kind =
  | Fetch_add of int
  | Compare_and_swap of { expected : int; desired : int }

and acc_op = Add | Min | Max | Band | Bor

let acc_op_name = function
  | Add -> "add"
  | Min -> "min"
  | Max -> "max"
  | Band -> "band"
  | Bor -> "bor"

let apply_acc aop old operand =
  match aop with
  | Add -> old + operand
  | Min -> min old operand
  | Max -> max old operand
  | Band -> old land operand
  | Bor -> old lor operand

let apply_atomic kind old =
  match kind with
  | Fetch_add d -> old + d
  | Compare_and_swap { expected; desired } ->
      if old = expected then desired else old

let is_reply = function
  | Put_ack _ | Get_reply _ | Atomic_reply _ | Acc_reply _ | Lock_granted _
  | Control_reply _ ->
      true
  | Put _ | Put_batch _ | Get _ | Atomic _ | Accumulate _ | Lock_request _
  | Unlock _ | Control _ ->
      false

(* The issuing operation's id, used to pair a send with its delivery in
   telemetry. [Unlock] is fire-and-forget with no op of its own: -1. *)
let op_id = function
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

let header_words = 2

(* The nominal clock allowance a message carries: the [extra_words]
   the detector charged when it issued the operation (dim + 1 under the
   piggyback transports, 0 otherwise). The transport needs it separated
   out so it can price the clock at what the chosen wire encoding
   actually shipped instead of this linear-in-n model. *)
let extra_words_of = function
  | Put { extra_words; _ }
  | Put_batch { extra_words; _ }
  | Get { extra_words; _ }
  | Get_reply { extra_words; _ }
  | Atomic { extra_words; _ }
  | Accumulate { extra_words; _ }
  | Acc_reply { extra_words; _ } ->
      extra_words
  | Put_ack _ | Atomic_reply _ | Lock_request _ | Lock_granted _ | Unlock _
  | Control _ | Control_reply _ ->
      0

let wire_words = function
  | Put { data; extra_words; _ } ->
      header_words + Array.length data + extra_words
  | Put_ack _ -> header_words
  | Put_batch { parts; extra_words; _ } ->
      (* one header for the whole batch; each part pays one word for its
         offset plus its data *)
      header_words + extra_words
      + Array.fold_left
          (fun acc (_, data) -> acc + 1 + Array.length data)
          0 parts
  | Get { extra_words; _ } -> header_words + extra_words
  | Get_reply { data; extra_words; _ } ->
      header_words + Array.length data + extra_words
  | Atomic { extra_words; _ } -> header_words + 2 + extra_words
  | Atomic_reply _ -> header_words + 1
  | Accumulate { data; extra_words; _ } ->
      (* one word for the op selector plus the operand block *)
      header_words + 1 + Array.length data + extra_words
  | Acc_reply { old; extra_words; _ } ->
      header_words + Array.length old + extra_words
  | Lock_request _ -> header_words + 2
  | Lock_granted _ -> header_words + 1
  | Unlock _ -> header_words + 1
  | Control { words; _ } -> header_words + 1 + Array.length words
  | Control_reply { words; _ } -> header_words + Array.length words

(* True wire size once a framed piggyback replaces the nominal clock
   allowance: the message's own words minus its [extra_words] model,
   plus the actual frame. Timing still uses [wire_words]; this feeds
   the byte-accounting counters only. *)
let wire_words_piggyback ~pb msg = wire_words msg - extra_words_of msg + pb

let describe = function
  | Put { op; origin; offset; data; want_ack; locked; _ } ->
      Printf.sprintf "put#%d from P%d -> pub[%d..+%d)%s%s" op origin offset
        (Array.length data)
        (if locked then "" else " (raw)")
        (if want_ack then " (acked)" else "")
  | Put_ack { op } -> Printf.sprintf "put-ack#%d" op
  | Put_batch { op; origin; parts; locked; want_ack; _ } ->
      let words =
        Array.fold_left (fun acc (_, d) -> acc + Array.length d) 0 parts
      in
      Printf.sprintf "put-batch#%d from P%d (%d parts, %d words)%s%s" op
        origin (Array.length parts) words
        (if locked then "" else " (raw)")
        (if want_ack then " (acked)" else "")
  | Get { op; origin; offset; len; locked; _ } ->
      Printf.sprintf "get#%d from P%d of pub[%d..+%d)%s" op origin offset len
        (if locked then "" else " (raw)")
  | Get_reply { op; data; _ } ->
      Printf.sprintf "get-reply#%d (%d words)" op (Array.length data)
  | Atomic { op; origin; offset; kind; _ } ->
      let k =
        match kind with
        | Fetch_add d -> Printf.sprintf "fetch_add %d" d
        | Compare_and_swap { expected; desired } ->
            Printf.sprintf "cas %d->%d" expected desired
      in
      Printf.sprintf "atomic#%d from P%d at pub[%d]: %s" op origin offset k
  | Atomic_reply { op; old_value } ->
      Printf.sprintf "atomic-reply#%d old=%d" op old_value
  | Accumulate { op; origin; offset; aop; data; _ } ->
      Printf.sprintf "accumulate#%d from P%d at pub[%d..+%d): %s" op origin
        offset (Array.length data) (acc_op_name aop)
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
