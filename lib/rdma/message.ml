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

and atomic_kind = Dsm_obs.Probe.atomic_kind =
  | Fetch_add of int
  | Compare_and_swap of { expected : int; desired : int }

and acc_op = Dsm_obs.Probe.acc_op = Add | Min | Max | Band | Bor

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

(* The fields a probe event carries, built with no formatting: the
   label is rendered by [Dsm_obs.Msg.label] only where it is printed. *)
let fields msg : Dsm_obs.Msg.t =
  let module M = Dsm_obs.Msg in
  let m = M.none in
  match msg with
  | Put { op; origin; offset; data; locked; want_ack; _ } ->
      { m with kind = M.Put; op; origin; offset; len = Array.length data;
        locked; acked = want_ack }
  | Put_ack { op } -> { m with kind = M.Put_ack; op }
  | Put_batch { op; origin; parts; locked; want_ack; _ } ->
      let words =
        Array.fold_left (fun acc (_, d) -> acc + Array.length d) 0 parts
      in
      { m with kind = M.Put_batch; op; origin; parts = Array.length parts;
        len = words; locked; acked = want_ack }
  | Get { op; origin; offset; len; locked; _ } ->
      { m with kind = M.Get; op; origin; offset; len; locked }
  | Get_reply { op; data; _ } ->
      { m with kind = M.Get_reply; op; len = Array.length data }
  | Atomic { op; origin; offset; kind = Fetch_add d; _ } ->
      { m with kind = M.Fetch_add; op; origin; offset; arg = d }
  | Atomic { op; origin; offset; kind = Compare_and_swap { expected; desired };
      _ } ->
      { m with kind = M.Cas; op; origin; offset; arg = expected; arg2 = desired }
  | Atomic_reply { op; old_value } ->
      { m with kind = M.Atomic_reply; op; arg = old_value }
  | Accumulate { op; origin; offset; aop; data; _ } ->
      { m with kind = M.Accumulate; op; origin; offset; len = Array.length data;
        name = Dsm_obs.Probe.acc_op_name aop }
  | Acc_reply { op; old; _ } ->
      { m with kind = M.Acc_reply; op; len = Array.length old }
  | Lock_request { op; origin; offset; len } ->
      { m with kind = M.Lock_request; op; origin; offset; len }
  | Lock_granted { op; token } -> { m with kind = M.Lock_granted; op; arg = token }
  | Unlock { token } -> { m with kind = M.Unlock; op = -1; arg = token }
  | Control { op; origin; tag; words; _ } ->
      { m with kind = M.Control; op; origin; len = Array.length words;
        name = tag }
  | Control_reply { op; words } ->
      { m with kind = M.Control_reply; op; len = Array.length words }

let describe msg = Dsm_obs.Msg.label (fields msg)
