module Machine = Dsm_rdma.Machine
module Coherence = Dsm_rdma.Coherence
module Detector = Dsm_core.Detector
module Config = Dsm_core.Config
module Env = Dsm_pgas.Env
module Collectives = Dsm_pgas.Collectives
module Probe = Dsm_obs.Probe
open Dsm_workload

(* A scenario's own invariants, read after the run with its checker *)
type monitor = Coherence.t option -> (string * string) list

let no_monitor (_ : Coherence.t option) = []

type built = {
  machine : Machine.t;
  detector : Detector.t option;
  coherence : Coherence.t;
  monitor : monitor;
}

(* A prepared scenario: everything machine-independent (spec parsing,
   program compilation, drawing a seeded program, process-count
   validation) is done once; what remains is populating a machine —
   fresh ([instantiate]) or recycled in place ([repopulate]) — with the
   arena's coherence checker. Per-run work is then proportional to the
   scenario's live state, not to machine construction. *)
type plan = {
  procs : int;
  mk_machine : Dsm_sim.Engine.t -> Machine.t;
  populate : Machine.t -> Coherence.t -> built;
}

(* [Skip_rmw_write_mark] is inert on scenarios without RMWs (getput),
   so one [bug] flag plants the whole defect family. *)
let make_machine sim (s : Token.spec) =
  Machine.create sim ~n:s.n ~latency:s.latency ~faults:s.faults
    ~reliable:s.reliable
    ~protocol_bugs:
      (if s.bug then [ Machine.Skip_get_dst_lock; Machine.Skip_rmw_write_mark ]
       else [])
    ~model:s.model ()

(* [getput]/[rmwlost] run plain, or as [-checked] with the race detector
   watching. The checked accesses go through [Detector.get]/[put]/
   [fetch_add] under the [Inline] transport, so the data path is still
   the machine's own atomic verbs — the planted bugs bite exactly as in
   the plain variants — while every access is clock-checked: the
   unsynchronized get/put pair signals races whose explanations must
   name both endpoints, and the RMW storm (S-serialized, hence
   race-silent) exercises the provenance-based atomicity fallback. *)
let checked_config = { Config.default with Config.transport = Config.Inline }

let builtin_env ~checked machine =
  if checked then Env.checked (Detector.create machine ~config:checked_config ())
  else Env.plain machine

(* The get-window monitor's state: P0's gets in flight, by op id, from
   send to reply, region A's span and the run's findings, newest first.
   Its sink is attached once per engine (the bus outlives
   [Machine.reset]); [populate_getput] resets the state. *)
type getput_watch = {
  open_gets : (int, unit) Hashtbl.t;
  mutable a_lo : int;
  mutable a_len : int;
  mutable bad : string list;
}

let watch_getput w sim =
  let bus = Dsm_sim.Engine.probe sim in
  Probe.attach bus Probe.(msg lor apply) (function
    | Probe.Msg_sent { src = 0; msg = Get { op; _ }; _ } ->
        Hashtbl.replace w.open_gets op ()
    | Msg_delivered { dst = 0; msg = Get_reply { op; _ }; _ } ->
        Hashtbl.remove w.open_gets op
    | Write_applied { node = 0; offset; data; origin } ->
        let len = Array.length data in
        let overlaps = offset < w.a_lo + w.a_len && w.a_lo < offset + len in
        if overlaps && origin <> 0 && Hashtbl.length w.open_gets > 0 then
          w.bad <-
            Printf.sprintf
              "put by P%d applied to A at t=%.3f inside P0's open get window"
              origin (Probe.now bus)
            :: w.bad
    | _ -> ())

(* The built-in scenario behind the planted-bug acceptance test: P0
   repeatedly gets a remote region into its own public region A while P1
   puts into A. Figure 3 makes each get atomic — A stays locked for the
   whole round trip — so a put may never be applied to A inside an open
   get window. The monitor watches exactly that; it can only fire when
   [Skip_get_dst_lock] is planted. *)
let populate_getput ~checked w machine coherence =
  let env = builtin_env ~checked machine in
  let a = Machine.alloc_public machine ~pid:0 ~name:"A" ~len:4 () in
  let b = Machine.alloc_public machine ~pid:1 ~name:"B" ~len:4 () in
  (* the scenario's declared initial images: first reads of
     never-written words are checked against these, not adopted *)
  Coherence.declare_init coherence ~node:0
    ~offset:a.Dsm_memory.Addr.base.offset
    (Dsm_memory.Node_memory.read (Machine.node machine 0) a);
  Coherence.declare_init coherence ~node:1
    ~offset:b.Dsm_memory.Addr.base.offset
    (Dsm_memory.Node_memory.read (Machine.node machine 1) b);
  Env.register env a;
  Env.register env b;
  Hashtbl.clear w.open_gets;
  w.a_lo <- a.Dsm_memory.Addr.base.offset;
  w.a_len <- a.Dsm_memory.Addr.len;
  w.bad <- [];
  let iters = 3 in
  Machine.spawn machine ~pid:0 ~name:"getter" (fun p ->
      for _ = 1 to iters do
        Env.get env p ~src:b ~dst:a;
        Machine.compute p 0.5
      done);
  let payload = Machine.alloc_private machine ~pid:1 ~name:"payload" ~len:4 () in
  Dsm_memory.Node_memory.write (Machine.node machine 1) payload [| 7; 7; 7; 7 |];
  Machine.spawn machine ~pid:1 ~name:"putter" (fun p ->
      for _ = 1 to iters do
        Env.put env p ~src:payload ~dst:a;
        Machine.compute p 0.3
      done);
  let monitor _ =
    List.rev_map (fun m -> ("get-window-atomicity", m)) w.bad
  in
  { machine; detector = Env.detector env; coherence; monitor }

(* The §5.2 planted-bug acceptance scenario, [Skip_rmw_write_mark]'s
   counterpart to [getput]: every process but 0 fetch_adds the same word
   of node 0 at t = 0. Under constant latency the Atomic deliveries tie,
   and with the bug planted the write half of an RMW is deferred to a
   delay-0 event — so the explorer can order a tied delivery between an
   RMW's read and its write, and the second RMW computes from the stale
   value. The coherence checker's RMW oracle flags the second apply (its [old]
   disagrees with the serial replay) and the sum monitor sees the lost
   increment. Bug-free, every schedule sums exactly. *)
let populate_rmwlost ~checked machine coherence =
  let env = builtin_env ~checked machine in
  let n = Machine.n machine in
  let counter = Machine.alloc_public machine ~pid:0 ~name:"C" ~len:1 () in
  Coherence.declare_init coherence ~node:0
    ~offset:counter.Dsm_memory.Addr.base.offset
    (Dsm_memory.Node_memory.read (Machine.node machine 0) counter);
  Env.register env counter;
  let target =
    Dsm_memory.Addr.global ~pid:0 ~space:Dsm_memory.Addr.Public
      ~offset:counter.Dsm_memory.Addr.base.offset
  in
  for pid = 1 to n - 1 do
    Machine.spawn machine ~pid
      ~name:(Printf.sprintf "adder%d" pid)
      (fun p -> ignore (Env.fetch_add env p ~target ~delta:1))
  done;
  let monitor _ =
    let v =
      (Dsm_memory.Node_memory.read (Machine.node machine 0) counter).(0)
    in
    if v = n - 1 then []
    else
      [
        ( "rmw-sum",
          Printf.sprintf "counter holds %d after %d fetch_adds" v (n - 1) );
      ]
  in
  { machine; detector = Env.detector env; coherence; monitor }

(* Parsing and lowering happen at [prepare] time; per run we only attach
   the detector and spawn the compiled program. *)
let compile_prog path =
  match Dsm_lang.Compile.load ~instrument:true path with
  | Ok ir -> ir
  | Error msg -> invalid_arg ("Scenario " ^ msg)

let populate_prog ir machine coherence =
  let detector = Detector.create machine () in
  let (_ : Dsm_lang.Exec.runtime) = Dsm_lang.Exec.setup machine ~detector ir in
  { machine; detector = Some detector; coherence; monitor = no_monitor }

(* The one workload table: one entry per [workload:NAME], read by the
   explorer's scenarios and by [dsmcheck workload] alike. An entry's
   [build ~ops ~seed ~n] is called once per plan, so a seed-determined
   draw ([random]'s op sequences) is made there; what it returns
   installs the program on a run's environment and collectives and
   returns the run's monitor. *)
type workload = {
  name : string;
  min_procs : int;
  min_ops : int;
  knob : string;
  ops : int;
  build : ops:int -> seed:int -> n:int -> Env.t -> Collectives.t -> monitor;
}

(* a program whose run has no monitor of its own *)
let quiet install env collectives =
  install env collectives;
  no_monitor

let think_mean = 1.0

let random ~ops ~seed ~n =
  let p = { Random_access.default with ops_per_proc = ops; think_mean; seed } in
  let program = Random_access.draw ~n p in
  quiet (fun env collectives -> Random_access.install env ~collectives program)

let master_worker ~racy ~ops ~seed ~n:_ =
  let p = { Master_worker.default with tasks_per_worker = ops; racy; seed } in
  quiet (fun env collectives -> Master_worker.setup env ~collectives p)

let stencil ~ops ~seed ~n:_ =
  let p = { Stencil.cells_per_node = 4; iterations = ops; seed } in
  quiet (fun env collectives -> ignore (Stencil.setup env ~collectives p))

let pipeline ~ops ~seed ~n:_ =
  let p = { Pipeline.default with batches = ops; seed } in
  quiet (fun env _ -> Pipeline.setup env p)

let locked_counter ~ops ~seed ~n:_ =
  let p = { Locked_counter.increments_per_proc = ops; think_mean; seed } in
  quiet (fun env _ -> Locked_counter.setup env p)

(* the racy ring, which needs distinct neighbours *)
let scale ~batched ~ops ~seed ~n:_ =
  let p =
    { Scale.default with rounds = ops; racy = true; batched; think_mean; seed }
  in
  quiet (fun env _ -> Scale.setup env p)

let histogram ~racy ~ops ~seed ~n:_ =
  let p =
    { Histogram.default with updates_per_proc = ops; racy; think_mean; seed }
  in
  quiet (fun env _ -> Histogram.setup env p)

let deque ~racy ~ops ~seed ~n:_ =
  let p = { Deque.steals_per_thief = ops; racy; think_mean; seed } in
  fun env _ ->
    let check = Deque.setup env p in
    fun _ -> check ()

let allreduce ~racy ~ops ~seed ~n:_ =
  let p =
    { Allreduce.default with contributions = ops; racy; think_mean; seed }
  in
  fun env collectives ->
    let check = Allreduce.setup env ~collectives p in
    fun _ -> check ()

(* the arena is updated only through NIC-visible puts and RMWs, so at
   quiescence memory must agree with the shadow's serial replay word
   for word; a run without a checker has no replay to compare *)
let rmw_heap machine arena coherence =
  List.filter_map
    (fun (r : Dsm_memory.Addr.region) ->
      let node = r.base.pid and offset = r.base.offset in
      match Coherence.expected coherence ~node ~offset with
      | None -> None
      | Some want ->
          let memory = Machine.node machine node in
          let got = (Dsm_memory.Node_memory.read memory r).(0) in
          if got = want then None
          else
            Some
              ( "rmw-heap",
                Printf.sprintf
                  "%d[%d] holds %d at quiescence, serial replay gives %d" node
                  offset got want ))
    arena

let rmw_mix ~ops ~seed ~n:_ =
  let p = { Rmw_mix.default with ops_per_proc = ops; think_mean; seed } in
  fun env _ ->
    let arena = Rmw_mix.setup env p in
    Option.fold ~none:[] ~some:(rmw_heap (Env.machine env) arena)

let entry ?(min_procs = 2) name ~knob ~ops ~min_ops build =
  { name; min_procs; min_ops; knob; ops; build }

(* [name] and [name-racy]: one builder, its [racy] flag set by the name *)
let with_racy name ~knob ~ops ~min_ops build =
  [
    entry name ~knob ~ops ~min_ops (build ~racy:false);
    entry (name ^ "-racy") ~knob ~ops ~min_ops (build ~racy:true);
  ]

let workloads =
  [ entry "random" ~knob:"ops per process" ~ops:6 ~min_ops:0 random ]
  @ with_racy "master-worker" ~knob:"tasks per worker" ~ops:3 ~min_ops:1
      master_worker
  @ [
      entry "stencil" ~knob:"iterations" ~ops:2 ~min_ops:0 stencil;
      entry "pipeline" ~knob:"batches" ~ops:3 ~min_ops:1 pipeline;
      entry "locked-counter" ~knob:"increments per process" ~ops:3 ~min_ops:1
        locked_counter;
      entry ~min_procs:3 "scale" ~knob:"rounds" ~ops:2 ~min_ops:1
        (scale ~batched:false);
      entry ~min_procs:3 "scale-batched" ~knob:"rounds" ~ops:2 ~min_ops:1
        (scale ~batched:true);
    ]
  @ with_racy "histogram" ~knob:"updates per process" ~ops:2 ~min_ops:0
      histogram
  @ with_racy "deque" ~knob:"steals per thief" ~ops:1 ~min_ops:1 deque
  @ with_racy "allreduce" ~knob:"contributions" ~ops:1 ~min_ops:1 allreduce
  @ [ entry "rmw-mix" ~knob:"ops per process" ~ops:3 ~min_ops:0 rmw_mix ]

let populate_workload program machine coherence =
  let detector = Detector.create machine () in
  let env = Env.checked detector in
  let collectives = Collectives.create env in
  let monitor = program env collectives in
  { machine; detector = Some detector; coherence; monitor }

let known =
  [ "getput"; "getput-checked"; "rmwlost"; "rmwlost-checked"; "prog:FILE.dsm" ]
  @ List.map (fun w -> "workload:" ^ w.name) workloads

let find_workload name = List.find_opt (fun w -> w.name = name) workloads

(* The one table of process minimums, read by [prepare] and by the
   one-shot commands: a workload's own row, one process for a program,
   two for everything else. *)
let min_procs s =
  if String.starts_with ~prefix:"prog:" s then 1
  else
    List.fold_left
      (fun min w -> if "workload:" ^ w.name = s then w.min_procs else min)
      2 workloads

let check_procs s ~min n =
  if n >= min then Ok ()
  else
    Error
      (Printf.sprintf
         "scenario %s needs at least %d process%s; pass -n %d or more" s min
         (if min = 1 then "" else "es")
         min)

let prepare (s : Token.spec) =
  let spec = s.scenario in
  let plan ?(watch = ignore) populate =
    let min = min_procs spec in
    if s.n < min then
      invalid_arg
        (Printf.sprintf
           "Scenario %s: needs at least %d processes, token/spec declares %d"
           spec min s.n);
    let mk_machine sim =
      watch sim;
      make_machine sim s
    in
    { procs = s.n; mk_machine; populate }
  in
  match String.index_opt spec ':' with
  | None when spec = "getput" || spec = "getput-checked" ->
      let w = { open_gets = Hashtbl.create 8; a_lo = 0; a_len = 0; bad = [] } in
      plan ~watch:(watch_getput w)
        (populate_getput ~checked:(spec = "getput-checked") w)
  | None when spec = "rmwlost" -> plan (populate_rmwlost ~checked:false)
  | None when spec = "rmwlost-checked" -> plan (populate_rmwlost ~checked:true)
  | None -> invalid_arg (Printf.sprintf "Scenario: unknown scenario %S" spec)
  | Some colon -> (
      let kind = String.sub spec 0 colon in
      let arg = String.sub spec (colon + 1) (String.length spec - colon - 1) in
      match kind with
      | "prog" -> plan (populate_prog (compile_prog arg))
      | "workload" -> (
          match find_workload arg with
          | Some w ->
              plan
                (populate_workload (w.build ~ops:w.ops ~seed:s.seed ~n:s.n))
          | None ->
              invalid_arg (Printf.sprintf "Scenario: unknown workload %S" arg))
      | _ -> invalid_arg (Printf.sprintf "Scenario: unknown scenario %S" spec))

let procs plan = plan.procs

(* The arena's sinks, the scenario's monitor and then the coherence
   checker, are attached once per engine, before the populate that
   creates the detector. *)
let instantiate plan sim =
  let machine = plan.mk_machine sim in
  plan.populate machine (Coherence.attach machine)

let repopulate plan (b : built) =
  Machine.reset b.machine;
  Coherence.reset b.coherence;
  plan.populate b.machine b.coherence
