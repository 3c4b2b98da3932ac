module Engine = Dsm_sim.Engine
module Prng = Dsm_sim.Prng
module Machine = Dsm_rdma.Machine
module Coherence = Dsm_rdma.Coherence
module Detector = Dsm_core.Detector
module Report = Dsm_core.Report
module Vector_clock = Dsm_clocks.Vector_clock
module W = Dsm_obs.Json_writer

type spec = Token.spec

let default_spec = Token.default_spec

type outcome = Completed | Blocked of int | Event_limit | Crashed of string

let write_outcome buf = function
  | Completed -> Buffer.add_string buf "completed"
  | Blocked k ->
      Buffer.add_string buf "blocked(";
      W.int buf k;
      Buffer.add_char buf ')'
  | Event_limit -> Buffer.add_string buf "event-limit"
  | Crashed msg ->
      Buffer.add_string buf "crashed: ";
      Buffer.add_string buf msg

let outcome_to_string o =
  let buf = Buffer.create 16 in
  write_outcome buf o;
  Buffer.contents buf

type violation = { invariant : string; detail : string }

type run_result = {
  outcome : outcome;
  sim_time : float;
  events : int;
  decisions : int list;
  choices : (int * int) list;
  fingerprint : string;
  canon : string;
  races : int;
  retransmits : int;
  violations : violation list;
}

type mode = Walk of int | Script of int list

(* How often (in events) the detector's per-process clocks are sampled
   for the monotonicity invariant. *)
let clock_stride = 256

let mix_seed seed salt =
  (* splitmix-style avalanche so walk i and walk i+1 share nothing *)
  let h = (seed * 0x9E3779B1) lxor ((salt + 1) * 0x85EBCA77) in
  (h lxor (h lsr 13)) land max_int

(* A reusable exploration arena. Everything heavyweight is built once —
   the engine, the machine (lazily, on the first run), the scenario plan
   (program parsed and compiled once), the decision-recording buffers,
   the clock-sampling scratch — and reset in place between runs, so a
   worker executing thousands of schedules rebuilds nothing. A run in a
   reused ctx is bit-identical to one in a fresh ctx (the reset layer
   reproduces construction state exactly, including PRNG stream
   positions); the test suite holds us to that. *)
type ctx = {
  spec : spec;
  plan : Scenario.plan;
  sim : Engine.t;
  walk_rng : Prng.t;  (* decision stream for Walk runs, reseeded per run *)
  chooser : Chooser.t;  (* records the schedule of the current run *)
  replay_chooser : Chooser.t;  (* scripted re-run for the determinism check *)
  prev : Vector_clock.t option array;  (* clock-monotonicity scratch *)
  mutable runs_executed : int;  (* run ids for the probe bus *)
  mutable ready_log : Ready_log.t option;
      (* when installed, every run records its choice-point ready views
         and chained-grant samples — the DPOR layer's input *)
  mutable last_built : Scenario.built option;
      (* the machine/detector/monitor set of the most recent run, for
         post-run inspection (race explanations) and for the next run's
         [Scenario.repopulate] *)
  digest : Buffer.t;  (* a fingerprint's payload *)
}

let create_ctx ?metrics spec =
  let plan = Scenario.prepare spec in
  let sim = Engine.create ~seed:spec.seed () in
  (* Telemetry is strictly read-only with respect to the simulation —
     the meter touches neither PRNG streams nor scheduling — so a
     metrics-carrying ctx produces bit-identical findings. The bus lives
     in the engine and survives [Engine.reset], so one attach here
     observes every reused run. *)
  (match metrics with
  | None -> ()
  | Some registry -> Dsm_obs.Meter.attach registry (Engine.probe sim));
  {
    spec;
    plan;
    sim;
    walk_rng = Prng.create ~seed:0;
    chooser = Chooser.scripted [];
    replay_chooser = Chooser.scripted [];
    prev = Array.make (Scenario.procs plan) None;
    runs_executed = 0;
    ready_log = None;
    last_built = None;
    digest = Buffer.create 256;
  }

let ctx_probe ctx = Engine.probe ctx.sim

let ctx_spec ctx = ctx.spec

let last_built ctx = ctx.last_built

let set_ready_log ctx log = ctx.ready_log <- log

(* Reset the arena and populate it for the next run. Order matters:
   [Engine.reset] first (restores the root PRNG), then the machine reset
   inside [repopulate] re-splits the fabric stream from the same root
   position as construction did. *)
let fresh_built ctx =
  Engine.reset ~seed:ctx.spec.seed ctx.sim;
  match ctx.last_built with
  | None -> Scenario.instantiate ctx.plan ctx.sim
  | Some b -> Scenario.repopulate ctx.plan b

(* Run one schedule to its end, sampling detector clocks along the way.
   Returns the engine outcome (or the crash) — invariants are judged by
   the caller. *)
let execute ctx (built : Scenario.built) =
  let spec = ctx.spec in
  let sim = Machine.sim built.Scenario.machine in
  let mono = ref [] in
  let prev = ctx.prev in
  Array.fill prev 0 (Array.length prev) None;
  let sample () =
    match built.detector with
    | None -> ()
    | Some d ->
        for pid = 0 to Array.length prev - 1 do
          let cur = Vector_clock.snapshot (Detector.proc_clock d pid) in
          (match prev.(pid) with
          | Some old when not (Vector_clock.leq old cur) ->
              mono :=
                Printf.sprintf
                  "P%d clock went backwards at t=%.3f: %s then %s" pid
                  (Engine.now sim)
                  (Vector_clock.to_string old)
                  (Vector_clock.to_string cur)
                :: !mono
          | _ -> ());
          prev.(pid) <- Some cur
        done
  in
  let rec step () =
    let budget =
      min (Engine.events_processed sim + clock_stride) spec.max_events
    in
    match Engine.run ~max_events:budget sim with
    | Engine.Completed -> Completed
    | Engine.Blocked k -> Blocked k
    | Engine.Stopped -> Crashed "engine stopped"
    | Engine.Time_limit_reached -> Crashed "unexpected time limit"
    | Engine.Event_limit_reached ->
        sample ();
        if Engine.events_processed sim >= spec.max_events then Event_limit
        else step ()
    | exception e -> Crashed (Printexc.to_string e)
  in
  let outcome = step () in
  sample ();
  (outcome, List.rev !mono)

let check_invariants (spec : spec) (built : Scenario.built) outcome mono
    ~monitor_report =
  let v = ref [] in
  let add invariant detail = v := { invariant; detail } :: !v in
  let expect_complete = Dsm_net.Fault.is_none spec.faults || spec.reliable in
  (match outcome with
  | Completed ->
      let pending = Machine.pending_ops built.machine in
      if pending > 0 then
        add "quiescence"
          (Printf.sprintf "%d operation(s) still awaiting replies" pending);
      if not (Machine.locks_quiescent built.machine) then
        add "lock-quiescence" "a NIC lock table still holds or queues a range"
  | other ->
      if expect_complete then
        add "completion"
          (Printf.sprintf "run ended %s under %s"
             (outcome_to_string other)
             (if spec.reliable then "reliable transport"
              else "a fault-free fabric")));
  if not (Coherence.is_clean built.coherence) then
    add "coherence"
      (String.concat "; "
         (List.map
            (Format.asprintf "%a" Coherence.pp_violation)
            (Coherence.violations built.coherence)));
  List.iter (fun m -> add "clock-monotonicity" m) mono;
  List.iter
    (fun detail -> add "rmw-linearizability" detail)
    (Coherence.rmw_violations built.coherence);
  List.iter (fun (name, detail) -> add name detail) monitor_report;
  List.rev !v

(* The allocation-tight per-run summary: everything a caller needs to
   classify a run, and every value its fingerprint and canon are built
   from, captured at run end — the engine's time and event count
   describe the next run once the arena is reused. The schedule itself
   stays in the ctx's reusable buffers. Digests are built on demand:
   [result_of] for the rare runs that get surfaced, [raw_canon] for the
   DPOR and soundness callers. *)
type raw = {
  r_outcome : outcome;
  r_sim_time : float;
  r_events : int;
  r_races : int;
  r_report : Report.t option;  (* the detector's report, if any *)
  r_incoherent : int;  (* coherence violations *)
  r_monitor : (string * string) list;
  r_retransmits : int;
  r_violations : violation list;
}

let raw_violating r = r.r_violations <> []

(* Equal bits print equally, to any number of decimals. *)
let same_float a b = Int64.bits_of_float a = Int64.bits_of_float b

(* Whether [a] and [b] agree on every value [fingerprint_of] renders —
   outcome, final time (exactly), event and race counts, each race
   field by field, coherence violation count, monitor report — so
   equal runs have equal fingerprints, with nothing rounded or hashed. *)
let same_run a b =
  a.r_outcome = b.r_outcome
  && same_float a.r_sim_time b.r_sim_time
  && a.r_events = b.r_events
  && a.r_races = b.r_races
  && (match (a.r_report, b.r_report) with
     | Some ra, Some rb -> Report.same_races ra rb
     | None, None -> true
     | _ -> false)
  && a.r_incoherent = b.r_incoherent
  && a.r_monitor = b.r_monitor

(* [xs] separated by [sep], each written by [write]. *)
let add_joined buf sep write xs =
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char buf sep;
      write buf x)
    xs

(* The MD5 of [scenario \x00 outcome|time|events|races|report|violations|
   monitor], the time with 9 decimals and the monitor report as
   [name=detail;...]; the scenario keeps tokens for different scenarios
   from colliding. The payload is written into the ctx's buffer. *)
let fingerprint_of ctx r =
  let buf = ctx.digest in
  let sep () = Buffer.add_char buf '|' in
  Buffer.clear buf;
  Buffer.add_string buf ctx.spec.scenario;
  Buffer.add_char buf '\x00';
  write_outcome buf r.r_outcome;
  sep ();
  W.fixed 9 buf r.r_sim_time;
  sep ();
  W.int buf r.r_events;
  sep ();
  W.int buf r.r_races;
  sep ();
  Buffer.add_string buf
    (match r.r_report with Some rep -> Report.fingerprint rep | None -> "-");
  sep ();
  W.int buf r.r_incoherent;
  sep ();
  add_joined buf ';'
    (fun buf (name, detail) ->
      Buffer.add_string buf name;
      Buffer.add_char buf '=';
      Buffer.add_string buf detail)
    r.r_monitor;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* Order-insensitive summary of what a run {e found}: outcome, the set
   of violated invariants, and the set of raced granules (who, where) —
   with no timestamps, event counts or signal orders. Two
   Mazurkiewicz-equivalent schedules execute the same events in
   different orders, so their full fingerprints differ (times, seqs)
   while their canonical fingerprints must agree; the DPOR soundness
   suite compares exactly this. A raced granule's key is
   [pid:offset+len:p1,p2,...]; keys are sorted as strings. *)
let raw_canon r =
  let buf = Buffer.create 64 in
  let vnames =
    List.sort_uniq compare
      (List.map (fun v -> v.invariant) r.r_violations)
  in
  let groups =
    match r.r_report with
    | None -> []
    | Some rep ->
        List.sort_uniq compare
          (List.map
             (fun (g : Report.group) ->
               Buffer.clear buf;
               W.int buf g.g_granule.base.pid;
               Buffer.add_char buf ':';
               W.int buf g.g_granule.base.offset;
               Buffer.add_char buf '+';
               W.int buf g.g_granule.len;
               Buffer.add_char buf ':';
               add_joined buf ',' W.int g.g_pids;
               Buffer.contents buf)
             (Report.grouped rep))
  in
  Buffer.clear buf;
  write_outcome buf r.r_outcome;
  Buffer.add_char buf '|';
  add_joined buf ',' Buffer.add_string vnames;
  Buffer.add_char buf '|';
  add_joined buf ';' Buffer.add_string groups;
  Buffer.contents buf

let exec_with ctx chooser =
  let probe = Engine.probe ctx.sim in
  let run = ctx.runs_executed in
  ctx.runs_executed <- run + 1;
  if probe.Dsm_obs.Probe.on land Dsm_obs.Probe.run_begin <> 0 then
    Dsm_obs.Probe.emit probe (Run_begin { run });
  let built = fresh_built ctx in
  ctx.last_built <- Some built;
  Engine.set_chooser ctx.sim (Some (Chooser.fn chooser));
  (match ctx.ready_log with
  | None -> ()
  | Some log ->
      Ready_log.reset log ~sample:(fun () ->
          Machine.lock_grants_chained built.Scenario.machine);
      Engine.set_choice_view ctx.sim (Some (Ready_log.observe log)));
  let outcome, mono = execute ctx built in
  Engine.set_chooser ctx.sim None;
  (match ctx.ready_log with
  | None -> ()
  | Some log ->
      Ready_log.finish log;
      Engine.set_choice_view ctx.sim None);
  let monitor_report = built.monitor () in
  let violations =
    check_invariants ctx.spec built outcome mono ~monitor_report
  in
  let report = Option.map Detector.report built.detector in
  let races = match report with Some rep -> Report.count rep | None -> 0 in
  if probe.Dsm_obs.Probe.on land Dsm_obs.Probe.explore <> 0 then begin
    List.iter
      (fun v ->
        Dsm_obs.Probe.emit probe (Violation { run; invariant = v.invariant }))
      violations;
    Dsm_obs.Probe.emit probe
      (Run_end
         {
           run;
           events = Engine.events_processed ctx.sim;
           violating = violations <> [];
         })
  end;
  {
    r_outcome = outcome;
    r_sim_time = Engine.now ctx.sim;
    r_events = Engine.events_processed ctx.sim;
    r_races = races;
    r_report = report;
    r_incoherent = List.length (Coherence.violations built.coherence);
    r_monitor = monitor_report;
    r_retransmits = Machine.transport_retransmits built.machine;
    r_violations = violations;
  }

let exec_mode ctx mode =
  (match mode with
  | Walk salt ->
      Prng.reseed ctx.walk_rng ~seed:(mix_seed ctx.spec.seed salt);
      Chooser.reset_random ctx.chooser ctx.walk_rng
  | Script ds -> Chooser.reset_scripted ctx.chooser ds);
  exec_with ctx ctx.chooser

(* Determinism check: replay the decisions just recorded (shared buffer,
   no copy) through the second chooser, leaving the original recording
   intact for [result_of], and compare the two runs value by value. Only
   a mismatch builds fingerprints, for the violation text. *)
let exec_checked ?(check_determinism = false) ctx mode =
  let r = exec_mode ctx mode in
  if not check_determinism then r
  else begin
    Chooser.reset_replay_of ctx.replay_chooser ~src:ctx.chooser;
    let r2 = exec_with ctx ctx.replay_chooser in
    if same_run r r2 then r
    else
      {
        r with
        r_violations =
          r.r_violations
          @ [
              {
                invariant = "determinism";
                detail =
                  Printf.sprintf
                    "same schedule, different fingerprints (%s vs %s)"
                    (fingerprint_of ctx r) (fingerprint_of ctx r2);
              };
            ];
      }
  end

let result_of ctx (r : raw) =
  {
    outcome = r.r_outcome;
    sim_time = r.r_sim_time;
    events = r.r_events;
    decisions = Chooser.decisions ctx.chooser;
    choices = Chooser.trace ctx.chooser;
    fingerprint = fingerprint_of ctx r;
    canon = raw_canon r;
    races = r.r_races;
    retransmits = r.r_retransmits;
    violations = r.r_violations;
  }

let run_once_in ?(check_determinism = false) ctx mode =
  result_of ctx (exec_checked ~check_determinism ctx mode)

let run_once spec mode = run_once_in (create_ctx spec) mode

type stats = {
  runs : int;
  violated : int;
  first : (mode * run_result) option;
}

let explore_random_in ?(check_determinism = true) ?(stop_on_first = true) ctx
    ~runs =
  let rec loop i executed violated first =
    if i >= runs || (stop_on_first && first <> None) then
      { runs = executed; violated; first }
    else
      let r = exec_checked ~check_determinism ctx (Walk i) in
      let bad = raw_violating r in
      let first =
        match first with
        | Some _ -> first
        | None -> if bad then Some (Walk i, result_of ctx r) else None
      in
      loop (i + 1) (executed + 1) (violated + if bad then 1 else 0) first
  in
  loop 0 0 0 None

(* Decision prefixes deviating from the run most recently executed in
   [ctx], in canonical order: deviation position ascending, then branch
   ascending. Both the sequential DFS and the parallel driver's subtree
   partition enumerate children through this one function — that shared
   canonical order is what makes the parallel merge bit-identical to the
   sequential search. *)
let last_choice_points ctx = Chooser.choice_points ctx.chooser

let last_chosen_at ctx p = Chooser.chosen_at ctx.chooser p

let last_children ctx ~plen ~depth =
  let c = ctx.chooser in
  let horizon = min depth (Chooser.choice_points c) in
  let acc = ref [] in
  for p = horizon - 1 downto plen do
    let ready = Chooser.ready_at c p in
    let base = List.init p (Chooser.chosen_at c) in
    for k = ready - 1 downto 1 do
      acc := (base @ [ k ]) :: !acc
    done
  done;
  !acc

(* The one bounded-exhaustive DFS loop, first-deviation order — the
   classic stateless-model-checking enumeration. Pop a node, run its
   prefix as a [Script], and push the children [step] returns ahead of
   the rest of the stack, in the order given. [until] is asked before
   every run; the search ends when it holds or the stack is empty. *)
let dfs_in ctx ~root ~prefix ~until step =
  let rec loop = function
    | node :: rest when not (until ()) ->
        let r = exec_mode ctx (Script (prefix node)) in
        loop (step node r @ rest)
    | _ -> ()
  in
  loop [ root ]

(* Bounded-exhaustive DFS over decision prefixes: run the scripted
   prefix, read the (ready, chosen) trace it actually produced, and push
   one child per untaken branch at every choice point past the prefix
   (up to [depth] choice points into the run). *)
let explore_exhaustive_in ?(max_runs = 500) ctx ~depth =
  let runs = ref 0 in
  let first = ref None in
  dfs_in ctx ~root:[] ~prefix:Fun.id
    ~until:(fun () -> !runs >= max_runs || Option.is_some !first)
    (fun prefix r ->
      incr runs;
      if raw_violating r then first := Some (Script prefix, result_of ctx r);
      last_children ctx ~plen:(List.length prefix) ~depth);
  { runs = !runs; violated = (if Option.is_some !first then 1 else 0);
    first = !first }

(* Greedy minimization: find a short violating decision prefix by
   binary-searching the prefix length (violations here are usually
   prefix-closed; the search only ever lands on a verified-violating
   length), then try zeroing each remaining nonzero decision. All probe
   runs share one arena. *)
let minimize ?metrics spec decisions =
  let ctx = create_ctx ?metrics spec in
  let probe = Engine.probe ctx.sim in
  let violates ds =
    let bad = raw_violating (exec_mode ctx (Script ds)) in
    if probe.Dsm_obs.Probe.on land Dsm_obs.Probe.explore <> 0 then
      Dsm_obs.Probe.emit probe
        (Minimize_step { len = List.length ds; violating = bad });
    bad
  in
  let ds = Array.of_list (Token.trim_trailing_zeros decisions) in
  let len = Array.length ds in
  let prefix l = Array.to_list (Array.sub ds 0 l) in
  if len = 0 then []
  else begin
    let lo = ref 0 and hi = ref len in
    (* invariant: prefix !hi violates *)
    if violates [] then hi := 0
    else
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if violates (prefix mid) then hi := mid else lo := mid + 1
      done;
    let kept = Array.sub ds 0 !hi in
    for i = 0 to Array.length kept - 1 do
      if kept.(i) <> 0 then begin
        let saved = kept.(i) in
        kept.(i) <- 0;
        if not (violates (Array.to_list kept)) then kept.(i) <- saved
      end
    done;
    Token.trim_trailing_zeros (Array.to_list kept)
  end

let replay ?probe (t : Token.t) =
  match create_ctx t.spec with
  | ctx ->
      (match probe with None -> () | Some f -> f (ctx_probe ctx));
      Ok (run_once_in ctx (Script t.decisions))
  | exception Invalid_argument msg -> Error msg
  | exception Sys_error msg -> Error msg

let pp_violation ppf v =
  Format.fprintf ppf "%s: %s" v.invariant v.detail

let pp_result ppf r =
  Format.fprintf ppf
    "@[<v>outcome      : %s@,sim time     : %.2f us@,events       : %d@,\
     choice points: %d@,races        : %d@,retransmits  : %d@,\
     fingerprint  : %s@]"
    (outcome_to_string r.outcome)
    r.sim_time r.events
    (List.length r.choices)
    r.races r.retransmits r.fingerprint
