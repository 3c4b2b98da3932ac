open Dsm_pgas
module Machine = Dsm_rdma.Machine

type params = {
  batches : int;
  batch_words : int;
  poll_interval : float;
  seed : int;
}

let default = { batches = 3; batch_words = 4; poll_interval = 2.0; seed = 1 }

let batch_value params b i = (100 * (b + 1)) + i + params.seed

let setup env params =
  if params.batches < 1 || params.batch_words < 1 then
    invalid_arg "Pipeline.setup: degenerate parameters";
  let m = Env.machine env in
  if Machine.n m < 2 then invalid_arg "Pipeline.setup: need at least 2 nodes";
  (* Buffer and flag live on the consumer's node. The flag holds the
     number of the last published batch (0 = nothing yet). *)
  let buffer =
    Machine.alloc_public m ~pid:1 ~name:"pipe.buffer" ~len:params.batch_words ()
  in
  Env.register env buffer;
  let flag = Machine.alloc_public m ~pid:1 ~name:"pipe.flag" ~len:1 () in
  Env.register env flag;
  let checksum =
    Machine.alloc_public m ~pid:1 ~name:"pipe.checksum" ~len:1 ()
  in
  Env.register env checksum;
  (* Producer: fill the batch, then raise the flag. *)
  Machine.spawn m ~pid:0 (fun p ->
      let stage =
        Machine.alloc_private m ~pid:0 ~len:params.batch_words ()
      in
      let flag_stage = Machine.alloc_private m ~pid:0 ~len:1 () in
      for b = 1 to params.batches do
        Dsm_memory.Node_memory.write (Machine.node m 0) stage
          (Array.init params.batch_words (fun i -> batch_value params (b - 1) i));
        Env.put env p ~src:stage ~dst:buffer;
        Dsm_memory.Node_memory.write (Machine.node m 0) flag_stage [| b |];
        Env.put env p ~src:flag_stage ~dst:flag;
        (* Wait for the consumer to lower the flag before the next batch. *)
        let seen = ref b in
        while !seen = b do
          Machine.compute p params.poll_interval;
          Env.get env p ~src:flag ~dst:flag_stage;
          seen := (Dsm_memory.Node_memory.read (Machine.node m 0) flag_stage).(0)
        done
      done);
  (* Consumer: poll the flag, read the batch, acknowledge by lowering. *)
  Machine.spawn m ~pid:1 (fun p ->
      let local = Machine.alloc_private m ~pid:1 ~len:params.batch_words () in
      let flag_local = Machine.alloc_private m ~pid:1 ~len:1 () in
      let zero = Machine.alloc_private m ~pid:1 ~len:1 () in
      let sum = ref 0 in
      for b = 1 to params.batches do
        let seen = ref 0 in
        while !seen < b do
          Machine.compute p params.poll_interval;
          Env.get env p ~src:flag ~dst:flag_local;
          seen := (Dsm_memory.Node_memory.read (Machine.node m 1) flag_local).(0)
        done;
        Env.get env p ~src:buffer ~dst:local;
        Array.iter
          (fun v -> sum := !sum + v)
          (Dsm_memory.Node_memory.read (Machine.node m 1) local);
        (* acknowledge: lower the flag *)
        Env.put env p ~src:zero ~dst:flag
      done;
      let stage = Machine.alloc_private m ~pid:1 ~len:1 () in
      Dsm_memory.Node_memory.write (Machine.node m 1) stage [| !sum |];
      Env.put env p ~src:stage ~dst:checksum)
