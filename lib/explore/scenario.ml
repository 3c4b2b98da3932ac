module Machine = Dsm_rdma.Machine
module Coherence = Dsm_rdma.Coherence
module Detector = Dsm_core.Detector
module Config = Dsm_core.Config
module Env = Dsm_pgas.Env
module Collectives = Dsm_pgas.Collectives
module Probe = Dsm_obs.Probe

type built = {
  machine : Machine.t;
  detector : Detector.t option;
  coherence : Coherence.t;
  monitor : unit -> (string * string) list;
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

let known =
  [
    "getput";
    "getput-checked";
    "rmwlost";
    "rmwlost-checked";
    "prog:FILE.dsm";
    "workload:random";
    "workload:master-worker";
    "workload:master-worker-racy";
    "workload:stencil";
    "workload:pipeline";
    "workload:locked-counter";
    "workload:scale";
    "workload:scale-batched";
    "workload:histogram";
    "workload:histogram-racy";
    "workload:deque";
    "workload:deque-racy";
    "workload:allreduce";
    "workload:allreduce-racy";
    "workload:rmw-mix";
  ]

let no_monitor () = []

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
  let monitor () =
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
  let monitor () =
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

(* The program [workload:NAME] installs, chosen once per plan: each
   populate attaches the checker and the detector, then calls it with
   the run's environment, collectives and coherence checker. A
   seed-determined draw ([random]'s op sequences) is made here too, so
   a populate only installs it. *)
let workload_program ~name ~seed ~n =
  match name with
  | "random" ->
      let program =
        Dsm_workload.Random_access.draw ~n
          {
            Dsm_workload.Random_access.default with
            ops_per_proc = 6;
            think_mean = 1.0;
            seed;
          }
      in
      fun env collectives _ ->
        Dsm_workload.Random_access.install env ~collectives program;
        no_monitor
  | "master-worker" | "master-worker-racy" ->
      fun env collectives _ ->
        Dsm_workload.Master_worker.setup env ~collectives
          {
            Dsm_workload.Master_worker.default with
            tasks_per_worker = 3;
            racy = name = "master-worker-racy";
            seed;
          };
        no_monitor
  | "stencil" ->
      fun env collectives _ ->
        ignore
          (Dsm_workload.Stencil.setup env ~collectives
             { Dsm_workload.Stencil.cells_per_node = 4; iterations = 2; seed });
        no_monitor
  | "pipeline" ->
      fun env _ _ ->
        Dsm_workload.Pipeline.setup env
          { Dsm_workload.Pipeline.default with batches = 3; seed };
        no_monitor
  | "locked-counter" ->
      fun env _ _ ->
        Dsm_workload.Locked_counter.setup env
          {
            Dsm_workload.Locked_counter.increments_per_proc = 3;
            think_mean = 1.0;
            seed;
          };
        no_monitor
  | "scale" | "scale-batched" ->
      fun env _ _ ->
        Dsm_workload.Scale.setup env
          {
            Dsm_workload.Scale.default with
            racy = true;
            batched = name = "scale-batched";
            think_mean = 1.0;
            seed;
          };
        no_monitor
  | "histogram" | "histogram-racy" ->
      fun env _ _ ->
        Dsm_workload.Histogram.setup env
          {
            Dsm_workload.Histogram.default with
            updates_per_proc = 2;
            racy = name = "histogram-racy";
            think_mean = 1.0;
            seed;
          };
        no_monitor
  | "deque" | "deque-racy" ->
      fun env _ _ ->
        Dsm_workload.Deque.setup env
          {
            Dsm_workload.Deque.default with
            racy = name = "deque-racy";
            think_mean = 1.0;
            seed;
          }
  | "allreduce" | "allreduce-racy" ->
      fun env collectives _ ->
        Dsm_workload.Allreduce.setup env ~collectives
          {
            Dsm_workload.Allreduce.default with
            contributions = 1;
            racy = name = "allreduce-racy";
            think_mean = 1.0;
            seed;
          }
  | "rmw-mix" ->
      fun env _ coherence ->
        let machine = Env.machine env in
        let arena =
          Dsm_workload.Rmw_mix.setup env
            {
              Dsm_workload.Rmw_mix.default with
              ops_per_proc = 3;
              think_mean = 1.0;
              seed;
            }
        in
        (* the arena is updated only through NIC-visible puts and RMWs,
           so at quiescence memory must agree with the shadow's serial
           replay word for word *)
        fun () ->
          List.filter_map
            (fun (r : Dsm_memory.Addr.region) ->
              match
                Coherence.expected coherence ~node:r.base.pid
                  ~offset:r.base.offset
              with
              | None -> None
              | Some want ->
                  let got =
                    (Dsm_memory.Node_memory.read
                       (Machine.node machine r.base.pid)
                       r).(0)
                  in
                  if got = want then None
                  else
                    Some
                      ( "rmw-heap",
                        Printf.sprintf
                          "%d[%d] holds %d at quiescence, serial replay \
                           gives %d"
                          r.base.pid r.base.offset got want ))
            arena
  | _ -> invalid_arg (Printf.sprintf "Scenario: unknown workload %S" name)

let populate_workload program machine coherence =
  let detector = Detector.create machine () in
  let env = Env.checked detector in
  let collectives = Collectives.create env in
  let monitor = program env collectives coherence in
  { machine; detector = Some detector; coherence; monitor }

(* The one table of process minimums, read by [prepare] and by the
   one-shot commands: the racy ring of [scale] needs distinct
   neighbours, a program runs on one process, everything else on two. *)
let min_procs = function
  | "workload:scale" | "workload:scale-batched" -> 3
  | s when String.starts_with ~prefix:"prog:" s -> 1
  | _ -> 2

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
      | "workload" ->
          plan
            (populate_workload
               (workload_program ~name:arg ~seed:s.seed ~n:s.n))
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
