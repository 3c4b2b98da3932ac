open Dsm_sim
open Dsm_pgas
module Machine = Dsm_rdma.Machine
module Addr = Dsm_memory.Addr

type params = {
  rounds : int;
  chunk : int;
  racy : bool;
  batched : bool;
  think_mean : float;
  seed : int;
}

let default =
  { rounds = 2; chunk = 4; racy = false; batched = true; think_mean = 0.0;
    seed = 1 }

let slot (r : Addr.region) k =
  Addr.region ~pid:r.base.pid ~space:r.base.space
    ~offset:(r.base.offset + k) ~len:1

(* Each node hosts a [chunk]-slot public buffer. Every round, process
   [i] pushes one word into each slot of its right neighbour's buffer —
   [chunk] contiguous ascending single-word puts, the batchable shape.
   With [racy] set, [i] also pushes into its left neighbour's buffer, so
   every buffer has two unsynchronized writers ([j-1] and [j+1]) and
   every slot is a write-write race.

   The workload is put-only and barrier-free, so no process ever absorbs
   another's clock: causality — and with it the set of racy granules —
   is independent of both the schedule and of whether the transport
   batches. That invariance is what the batched-vs-unbatched
   differential test leans on. *)
let setup env params =
  if params.rounds < 1 || params.chunk < 1 then
    invalid_arg "Scale.setup: degenerate parameters";
  let m = Env.machine env in
  let n = Machine.n m in
  if params.racy && n < 3 then
    invalid_arg "Scale.setup: racy mode needs at least 3 processes";
  let buffers =
    Array.init n (fun j ->
        let r =
          Machine.alloc_public m ~pid:j
            ~name:(Printf.sprintf "scale.buf%d" j)
            ~len:params.chunk ()
        in
        Env.register env r;
        r)
  in
  for pid = 0 to n - 1 do
    let g = Prng.create ~seed:(params.seed + (1000 * pid)) in
    (* Pre-draw think times so program behaviour is a pure function of
       the seed, independent of simulated timing. *)
    let think =
      Array.init params.rounds (fun _ ->
          if params.think_mean <= 0. then 0.
          else Prng.exponential g ~mean:params.think_mean)
    in
    Machine.spawn m ~pid (fun p ->
        let src = Machine.alloc_private m ~pid ~len:params.chunk () in
        let targets =
          if params.racy then [ (pid + 1) mod n; (pid + n - 1) mod n ]
          else [ (pid + 1) mod n ]
        in
        (* Every round pushes the same slots, so each target's pairs are
           built once. *)
        let batches =
          List.map
            (fun j ->
              List.init params.chunk (fun k ->
                  (slot src k, slot buffers.(j) k)))
            targets
        in
        for r = 0 to params.rounds - 1 do
          if think.(r) > 0. then Machine.compute p think.(r);
          List.iter
            (fun pairs ->
              if params.batched then Env.put_batch env p ~pairs
              else
                List.iter (fun (s, d) -> Env.put env p ~src:s ~dst:d) pairs)
            batches
        done)
  done
