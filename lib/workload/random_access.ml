open Dsm_sim
open Dsm_pgas
module Machine = Dsm_rdma.Machine

type params = {
  ops_per_proc : int;
  vars : int;
  var_len : int;
  read_fraction : float;
  atomic_fraction : float;
  think_mean : float;
  barrier_every : int option;
  seed : int;
}

let default =
  {
    ops_per_proc = 50;
    vars = 4;
    var_len = 4;
    read_fraction = 0.5;
    atomic_fraction = 0.0;
    think_mean = 5.0;
    barrier_every = None;
    seed = 1;
  }

(* One pre-drawn op: the variable it touches (an index into the
   installed variables), what it does, and the think time before it. *)
type op = { var : int; kind : [ `Get | `Put | `Atomic of int ]; think : float }

type program = {
  params : params;
  names : string array;  (* variable [i]'s name *)
  plans : op list array;  (* process [pid]'s ops, in issue order *)
}

(* The op sequences are drawn up front, so program behaviour is
   independent of simulated timing. *)
let draw params ~n =
  if params.ops_per_proc < 0 || params.vars < 1 || params.var_len < 1 then
    invalid_arg "Random_access.setup: degenerate parameters";
  let plan pid =
    let g = Prng.create ~seed:(params.seed + (1000 * pid)) in
    List.init params.ops_per_proc (fun _ ->
        let var = Prng.int g params.vars in
        let kind =
          if Prng.bernoulli g ~p:params.atomic_fraction then
            `Atomic (Prng.int g params.var_len)
          else if Prng.bernoulli g ~p:params.read_fraction then `Get
          else `Put
        in
        let think = Prng.exponential g ~mean:params.think_mean in
        { var; kind; think })
  in
  {
    params;
    names = Array.init params.vars (Printf.sprintf "rand.var%d");
    plans = Array.init n plan;
  }

let install env ?collectives { params; names; plans } =
  (match (params.barrier_every, collectives) with
  | Some _, None ->
      invalid_arg "Random_access.setup: barrier_every needs collectives"
  | _ -> ());
  let m = Env.machine env in
  let n = Machine.n m in
  if Array.length plans <> n then
    invalid_arg
      "Random_access.install: program drawn for another process count";
  let variables =
    Array.mapi
      (fun i name ->
        let r =
          Machine.alloc_public m ~pid:(i mod n) ~name ~len:params.var_len ()
        in
        Env.register env r;
        r)
      names
  in
  Array.iteri
    (fun pid plan ->
      Machine.spawn m ~pid (fun p ->
          let buf = Machine.alloc_private m ~pid ~len:params.var_len () in
          List.iteri
            (fun k { var; kind; think } ->
              let var : Dsm_memory.Addr.region = variables.(var) in
              Machine.compute p think;
              (match kind with
              | `Get -> Env.get env p ~src:var ~dst:buf
              | `Put -> Env.put env p ~src:buf ~dst:var
              | `Atomic word ->
                  let target =
                    Dsm_memory.Addr.global ~pid:var.base.pid
                      ~space:Dsm_memory.Addr.Public
                      ~offset:(var.base.offset + word)
                  in
                  ignore (Env.fetch_add env p ~target ~delta:1));
              match (params.barrier_every, collectives) with
              | Some every, Some c when (k + 1) mod every = 0 ->
                  Collectives.barrier c p
              | _ -> ())
            plan))
    plans

let setup env ?collectives params =
  install env ?collectives (draw params ~n:(Machine.n (Env.machine env)))
