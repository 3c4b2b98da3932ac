include Dsm_obs.Wire

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

let header_words = 2

(* The nominal clock allowance a message carries: the [extra_words]
   the detector charged when it issued the operation (dim + 1 under the
   piggyback transports, 0 otherwise). The transport needs it separated
   out so it can price the clock at what the chosen wire encoding
   actually shipped instead of this linear-in-n model. *)
let extra_words = function
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

let describe = Dsm_obs.Msg.label
