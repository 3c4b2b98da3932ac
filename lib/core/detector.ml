open Dsm_memory
open Dsm_clocks
module Machine = Dsm_rdma.Machine
module Event = Dsm_trace.Event
module Recorder = Dsm_trace.Recorder

(* The per-access path allocates nothing per variable it skips: granule
   walks binary-search the store's address-sorted variable index (no
   lists), store lookups hash a packed-int key, clock comparisons and
   merges run on adaptive epoch/vector clocks in place, a granule's
   clocks are compared where they live (no copy), and every intermediate
   clock value lives in a per-process scratch buffer owned by the
   detector. A granule clock that equals a clean process clock carries
   that clock's owner stamp ({!Dsm_clocks.Stamp}), so checking it,
   absorbing it and merging into it cost O(1) or one copy instead of a
   walk. A granule's access history (provenance) is a ring in its
   store entry, so noting an access costs no second lookup, and once
   the ring is full a note overwrites its oldest slot in place. The
   path still allocates a granule's ring slots (each with a copy of the
   accessor's clock) until the ring has filled, and, under the Explicit
   transport, its control messages; a race signal allocates its report
   and the copies of its clocks. Scratch is keyed by accessor pid because
   the explicit transport blocks inside an access (control round trip)
   and the simulator may interleave another process's access meanwhile;
   a single process's accesses never nest, so per-pid buffers are safe. *)

type t = {
  machine : Machine.t;
  config : Config.t;
  mh : Dsm_rdma.Model.hooks;
      (* the memory model's detector hooks, unpacked at creation so the
         per-access path reads plain booleans *)
  probe : Dsm_obs.Probe.t; (* the owning engine's telemetry bus *)
  report : Report.t;
  dim : int; (* vector dimension: n, or 1 in the Lamport ablation *)
  procs : Vector_clock.t array;
  owners : Stamp.owners; (* the clean spans of [procs] *)
  stamped : bool;
      (* every process ticks its own component, so stamps hold: false
         in the Lamport ablation, where all tick component 0 *)
  stores : Clock_store.t array;
  recorder : Recorder.t option;
  (* clock per user-level lock, keyed by the locked region's full
     identity (pid, space, offset, len); only consulted when
     [lock_aware_clocks] is set *)
  lock_clocks : (Addr.region, Vector_clock.t) Hashtbl.t;
  (* per-pid scratch clocks for the hot path *)
  scratch_absorb : Vector_clock.t array;
  scratch_fv : Vector_clock.t array;
  scratch_fw : Vector_clock.t array;
  scratch_fs : Vector_clock.t array;
  scratch_barrier : Vector_clock.t;
  (* a [vput] payload decoded at the datum's node; handlers run to
     completion without blocking, so one buffer serves every node *)
  scratch_vput : Vector_clock.t;
  mutable checked_ops : int;
  mutable clock_words_shipped : int;
}

let vget_tag = "dsm.vget"

let vput_tag = "dsm.vput"

(* Extra [vput] class code: merge the payload into S only — the early
   release an RMW performs before its fabric round trip. *)
let s_release_code = 4

(* Access classes: the paper's reads and writes, plus the one-sided
   read-modify-write extension. An RMW is atomically both a read and a
   write against the granule's V/W clocks — it read-marks V always and
   write-marks W when it actually wrote (a failed compare-and-swap does
   not) — and additionally releases the accessor's clock into the
   granule's S clock. S is sound as a release point because the target
   NIC applies every RMW on a granule under the same region lock: RMWs
   on one granule are genuinely serialized, so a later RMW that acquires
   S really does happen after every clock merged into it. Plain accesses
   never touch S, so they cannot borrow synchronization they do not
   have. *)
type access_class = Plain_read | Plain_write | Rmw of { wrote : bool }

let class_code = function
  | Plain_read -> 0
  | Plain_write -> 1
  | Rmw { wrote = true } -> 2
  | Rmw { wrote = false } -> 3

let class_of_code = function
  | 0 -> Plain_read
  | 1 -> Plain_write
  | 2 -> Rmw { wrote = true }
  | 3 -> Rmw { wrote = false }
  | c -> invalid_arg (Printf.sprintf "Detector: bad access class %d" c)

(* Release [clock], stamped [cur], into the granule's S clock: an
   RMW's early release (see [release_rmw_history]) and its
   detection-time S mark. *)
let release_s (mh : Dsm_rdma.Model.hooks) store (e : Clock_store.entry) clock
    ~cur =
  if mh.rmw_acquires_order then
    e.ss <-
      Stamp.merge_into
        ~into:(Clock_store.sync_clock store e)
        ~stamp:e.ss clock ~cur

(* The access class -> V/W/S merge rule, the one place it is written:
   the local path applies it in place with the accessor's stamp [cur],
   the [vput] handler applies it at the datum's node unstamped. A write
   whose V the stamp shows below [clock] copies [clock] into V and W
   (W <= V always). *)
let merge_entry mh store (e : Clock_store.entry) cls clock ~cur =
  match cls with
  | Plain_read -> e.vs <- Stamp.merge_into ~into:e.v ~stamp:e.vs clock ~cur
  | Plain_write ->
      if Stamp.leq e.vs clock then begin
        Vector_clock.assign ~into:e.v clock;
        Vector_clock.assign ~into:e.w clock;
        e.vs <- cur;
        e.ws <- cur
      end
      else begin
        e.vs <- Stamp.merge_into ~into:e.v ~stamp:e.vs clock ~cur;
        e.ws <- Stamp.merge_into ~into:e.w ~stamp:e.ws clock ~cur
      end
  | Rmw { wrote } ->
      e.vs <- Stamp.merge_into ~into:e.v ~stamp:e.vs clock ~cur;
      if wrote then e.ws <- Stamp.merge_into ~into:e.w ~stamp:e.ws clock ~cur;
      release_s mh store e clock ~cur

let install_control_plane t =
  Machine.set_control_handler t.machine ~tag:vget_tag
    (fun ~node ~origin:_ words ->
      let e =
        Clock_store.entry_at t.stores.(node) ~offset:words.(0) ~len:words.(1)
      in
      let reply = Array.make (3 * t.dim) 0 in
      Vector_clock.store_words e.v reply ~off:0;
      Vector_clock.store_words e.w reply ~off:t.dim;
      Vector_clock.store_words e.s reply ~off:(2 * t.dim);
      Some reply);
  Machine.set_control_handler t.machine ~tag:vput_tag
    (fun ~node ~origin:_ words ->
      let store = t.stores.(node) in
      let e = Clock_store.entry_at store ~offset:words.(0) ~len:words.(1) in
      let clock = t.scratch_vput and cur = Stamp.none in
      Vector_clock.load_words clock words ~off:3;
      if words.(2) = s_release_code then release_s t.mh store e clock ~cur
      else merge_entry t.mh store e (class_of_code words.(2)) clock ~cur;
      None)

(* Algorithm 5's clock write: ship [clock] to the granule's node, whose
   [vput] handler applies update [code] (an access class's [class_code]
   or [s_release_code]). The async message retains its payload until
   delivery, so this one allocation is irreducible. *)
let send_vput t p ~node ~offset ~len ~code clock =
  let payload = Array.make (3 + t.dim) 0 in
  payload.(0) <- offset;
  payload.(1) <- len;
  payload.(2) <- code;
  Vector_clock.store_words clock payload ~off:3;
  t.clock_words_shipped <- t.clock_words_shipped + t.dim;
  Machine.control_async p ~target:node ~tag:vput_tag ~words:payload

let create machine ?(config = Config.default) ?(verbose = false) () =
  let config = Config.validate config in
  let n = Machine.n machine in
  let dim =
    match config.Config.clock_mode with
    | Config.Vector -> n
    | Config.Lamport_only -> 1
  in
  let mk () = Vector_clock.create ~n:dim in
  let clock_array () = Array.init n (fun _ -> mk ()) in
  let procs = clock_array () in
  let t =
    {
      machine;
      config;
      mh = Dsm_rdma.Model.hooks (Machine.model machine);
      probe = Dsm_sim.Engine.probe (Machine.sim machine);
      report = Report.create ~verbose ();
      dim;
      procs;
      owners = Stamp.owners procs;
      stamped =
        (match config.Config.clock_mode with
        | Config.Vector -> true
        | Config.Lamport_only -> false);
      stores =
        Array.init n (fun node ->
            Clock_store.create ~node ~clock_dim:dim
              ~granularity:config.Config.granularity);
      lock_clocks = Hashtbl.create 16;
      scratch_absorb = clock_array ();
      scratch_fv = clock_array ();
      scratch_fw = clock_array ();
      scratch_fs = clock_array ();
      scratch_barrier = mk ();
      scratch_vput = mk ();
      recorder =
        (if config.Config.record_trace then
           let reads_from =
             match config.Config.trace_reads_from with
             | `All_writers -> Recorder.All_writers
             | `Last_writer -> Recorder.Last_writer
           in
           Some (Recorder.create ~reads_from ~n ())
         else None);
      checked_ops = 0;
      clock_words_shipped = 0;
    }
  in
  install_control_plane t;
  (* Inline/piggyback transports ship the accessor's clock on the data
     messages themselves: install the machine's clock source so every
     clock-carrying message carries a piggyback, adaptively
     delta-encoded and priced by its size. Accounting-only — the fabric
     still prices the nominal [extra_words] allowance (see
     [Machine.set_clock_source]). *)
  (match config.Config.transport with
  | Config.Inline | Config.Piggyback_txn ->
      Machine.set_clock_source machine t.procs
  | Config.Explicit_txn -> ());
  t

let machine t = t.machine

let report t = t.report

let register t (r : Addr.region) = Clock_store.register t.stores.(r.base.pid) r

let alloc_shared t ~pid ?name ~len () =
  let r = Machine.alloc_public t.machine ~pid ?name ~len () in
  register t r;
  r

(* [update_local_clock]: a process ticks its own component, which
   starts a clean span; in the Lamport ablation every process ticks the
   single component 0. *)
let tick t p =
  if t.stamped then Stamp.tick t.owners (Machine.pid p)
  else Vector_clock.tick t.procs.(Machine.pid p) ~me:0

(* The stamp of process [pid]'s clock, {!Stamp.none} once something was
   merged into it since its last tick. *)
let own_stamp t pid =
  if t.stamped then Stamp.current t.owners pid else Stamp.none

let now t = Dsm_sim.Engine.now (Machine.sim t.machine)

let record_access t p ~kind ~target =
  match t.recorder with
  | None -> None
  | Some rec_ ->
      Some
        (Recorder.access rec_ ~time:(now t) ~pid:(Machine.pid p) ~kind ~target)

(* The S clock's release (at issue) and acquire (at the RMW's check), as
   trace events — the ground truth mirrors the detector's RMW model. *)
let record_rmw_sync t p ~region ~acquire =
  match t.recorder with
  | None -> ()
  | Some rec_ ->
      ignore
        (Recorder.rmw_sync rec_ ~time:(now t) ~pid:(Machine.pid p)
           ~target:region ~acquire)

let kind_of_class = function
  | Plain_read -> Event.Read
  | Plain_write -> Event.Write
  | Rmw _ -> Event.Atomic_update

let is_writing_class = function
  | Plain_write | Rmw { wrote = true } -> true
  | Plain_read | Rmw { wrote = false } -> false

(* Cold path: a race was found; materialize the granule region and the
   clock snapshots for the report, and recover the race's other endpoint
   from the granule's history (the current access has not been noted
   yet, so the lookup cannot return the access itself). *)
let signal_race t ~pid ~cls ~v0 ~event_id ~node ~offset ~len ~datum ~against
    ~history =
  let kind = kind_of_class cls in
  if t.probe.on land Dsm_obs.Probe.race <> 0 then
    Dsm_obs.Probe.emit t.probe
      (Race_signal
         {
           time = now t;
           pid;
           node;
           offset;
           len;
           kind = Event.kind_name kind;
           against = Report.against_tag against;
         });
  Report.signal t.report
    {
      Report.event_id;
      time = now t;
      accessor = pid;
      kind;
      granule = Addr.region ~pid:node ~space:Addr.Public ~offset ~len;
      accessor_clock = Vector_clock.snapshot v0;
      datum_clock = Vector_clock.snapshot datum;
      against;
      prior =
        Provenance.find_prior history ~pid ~write:(is_writing_class cls)
          ~clock:v0;
    }

(* Check the accessor's clock [v0] against one granule's clocks
   [fv]/[fw]/[fs], note the access in the history of [entry] (the
   granule's entry at its node) and fold the clocks a read or RMW
   observes into [absorb]. What this access must be ordered against:
   - a plain read races with concurrent writes — W carries both plain
     write marks and RMW write marks (or any access in the
     no-write-clock ablation);
   - a plain write races with any concurrent access (V);
   - an RMW first acquires the granule's S clock — the releases of every
     RMW the target NIC serialized before it under the region lock —
     then performs its read half and write half as one check: a writing
     RMW checks V (W ⊆ V, so one comparison covers both halves); a
     read-only RMW (failed compare-and-swap) checks only W, like a plain
     read. The acquire is what keeps RMW/RMW pairs silent while leaving
     every RMW/plain pair visible: plain accesses never release into S,
     so their marks stay concurrent with the acquirer.

   [vs]/[ws]/[ss] are the clocks' owner stamps ({!Stamp.none} for the
   Explicit transport's copies). A stamp that shows a clock below [v0]
   decides its check in O(1) and drops it from [absorb], where it would
   add nothing to [v0]; so does a compare that finds it below. *)
let check_granule t ~pid ~cls ~v0 ~event_id ~node ~offset ~len ~fv ~fw ~fs ~vs
    ~ws ~ss ~(entry : Clock_store.entry) ~absorb =
  let against =
    match cls with
    | Plain_read ->
        if t.config.Config.use_write_clock then Report.Write_clock
        else Report.General_clock
    | Plain_write -> Report.General_clock
    | Rmw { wrote } ->
        if t.mh.rmw_acquires_order && not (Stamp.leq ss v0) then
          Vector_clock.merge_into ~into:v0 fs;
        if wrote || not t.config.Config.use_write_clock then
          Report.General_clock
        else Report.Write_clock
  in
  let v_checked =
    match against with
    | Report.General_clock -> true
    | Report.Write_clock -> false
  in
  let datum = if v_checked then fv else fw in
  (* [below]: datum <= v0 *)
  let below =
    Stamp.leq (if v_checked then vs else ws) v0
    ||
    match Vector_clock.compare v0 datum with
    | Order.After | Order.Equal -> true
    | Order.Before -> false
    | Order.Concurrent ->
        signal_race t ~pid ~cls ~v0 ~event_id ~node ~offset ~len ~datum
          ~against ~history:entry.history;
        false
  in
  let v_below = v_checked && below in
  let depth = t.config.Config.provenance_depth in
  if depth > 0 then
    entry.history <-
      Provenance.note ~depth entry.history ~pid ~kind:(kind_of_class cls)
        ~time:(now t) ~op:t.checked_ops
        ~event_id:(match event_id with Some id -> id | None -> -1)
        v0;
  (* W <= V, so V below v0 puts W below it too *)
  match cls with
  | Plain_read | Rmw _ ->
      if t.mh.read_acquires_writes then begin
        if not (below || Stamp.leq ws v0) then
          Vector_clock.merge_into ~into:absorb fw;
        if not (Stamp.leq ss v0) then Vector_clock.merge_into ~into:absorb fs
      end;
      (* total store order: every access additionally acquires the
         granule's full history *)
      if t.mh.write_acquires_order && not (v_below || Stamp.leq vs v0) then
        Vector_clock.merge_into ~into:absorb fv
  | Plain_write ->
      if t.mh.write_acquires_order && not (v_below || Stamp.leq vs v0) then
        Vector_clock.merge_into ~into:absorb fv

(* Under Explicit, an access to another node's granules exchanges clocks
   by control message (Algorithm 5); everywhere else the store is at
   hand. *)
let remote_explicit t ~node ~pid =
  match t.config.Config.transport with
  | Config.Explicit_txn -> node <> pid
  | Config.Inline | Config.Piggyback_txn -> false

(* Check one access (already ticked clock [v0]) against every granule it
   covers, signal incomparabilities, merge [v0] into the granules, and
   return (in the accessor's scratch buffer) the union of the clocks the
   accessor absorbs — the causal history of the writes/atomics a read or
   an atomic observed.

   Under Inline/Piggyback the store is manipulated directly (the
   exchange rides the data messages); under Explicit each remote granule
   costs a control round trip to read and an async control message to
   update — Algorithm 5 taken literally. The history is observation,
   not protocol: even then it is read and noted in the entry the vget
   created at the datum's node, without a message. *)
let check_access t p ~(region : Addr.region) ~cls ~v0 ~event_id =
  let node = region.base.pid in
  let store = t.stores.(node) in
  let pid = Machine.pid p in
  let absorb = t.scratch_absorb.(pid) in
  Vector_clock.reset absorb;
  let remote = remote_explicit t ~node ~pid in
  let g = ref (Clock_store.first_granule store region) in
  while !g >= 0 do
    let offset = Clock_store.granule_offset !g
    and len = Clock_store.granule_len !g in
    if remote then begin
      let words =
        Machine.control p ~target:node ~tag:vget_tag ~words:[| offset; len |]
      in
      t.clock_words_shipped <- t.clock_words_shipped + Array.length words;
      let fv = t.scratch_fv.(pid)
      and fw = t.scratch_fw.(pid)
      and fs = t.scratch_fs.(pid) in
      Vector_clock.load_words fv words ~off:0;
      Vector_clock.load_words fw words ~off:t.dim;
      Vector_clock.load_words fs words ~off:(2 * t.dim);
      check_granule t ~pid ~cls ~v0 ~event_id ~node ~offset ~len ~fv ~fw ~fs
        ~vs:Stamp.none ~ws:Stamp.none ~ss:Stamp.none
        ~entry:(Clock_store.entry_at store ~offset ~len) ~absorb;
      send_vput t p ~node ~offset ~len ~code:(class_code cls) v0
    end
    else begin
      let e = Clock_store.entry_at store ~offset ~len in
      check_granule t ~pid ~cls ~v0 ~event_id ~node ~offset ~len ~fv:e.v
        ~fw:e.w ~fs:e.s ~vs:e.vs ~ws:e.ws ~ss:e.ss ~entry:e ~absorb;
      merge_entry t.mh store e cls v0 ~cur:(own_stamp t pid)
    end;
    g := Clock_store.next_granule store region !g
  done;
  absorb

(* Piggybacked clock words on a data message: a dense-encoded vector. *)
let piggyback_words t =
  match t.config.Config.transport with
  | Config.Inline | Config.Piggyback_txn -> t.dim + 1
  | Config.Explicit_txn -> 0

(* Global (pid, space, offset) lock order, decided without building or
   sorting lists: [Private] ranks below [Public], matching the
   constructor order the seed's polymorphic compare used. *)
let space_rank = function Addr.Private -> 0 | Addr.Public -> 1

let region_before (a : Addr.region) (b : Addr.region) =
  a.base.pid < b.base.pid
  || (a.base.pid = b.base.pid
     && (space_rank a.base.space < space_rank b.base.space
        || (a.base.space = b.base.space && a.base.offset < b.base.offset)))

(* Counts a checked operation and emits its [Detector_check]. The count
   is the provenance ordinal of the operation's accesses and the emit is
   its flight-recorder timestamp, so the blocking path takes both before
   it waits for locks. *)
let count_check t p ~kind =
  t.checked_ops <- t.checked_ops + 1;
  if t.probe.on land Dsm_obs.Probe.check <> 0 then
    Dsm_obs.Probe.emit t.probe
      (Detector_check
         {
           time = now t;
           pid = Machine.pid p;
           kind;
           fast_path = Vector_clock.is_epoch t.procs.(Machine.pid p);
         })

(* The detection body of Algorithms 1 and 2, without locks or data
   transfer: tick, read-side check and absorption, write-side check.
   [read_region] is checked when public, [write_region] likewise.
   [checked_op] runs it inside its lock span; the batched paths
   interleave several inside a single span. *)
let check_op t p ~read_region ~write_region =
  let v0 = t.procs.(Machine.pid p) in
  tick t p;
  if Addr.is_public read_region then begin
    let event_id = record_access t p ~kind:Event.Read ~target:read_region in
    let absorbed =
      check_access t p ~region:read_region ~cls:Plain_read ~v0 ~event_id
    in
    (* The reader absorbs the causal history of the writes it observed:
       this is what orders Figure 5b's m3 after m1. *)
    Vector_clock.merge_into ~into:v0 absorbed;
    if t.probe.on land Dsm_obs.Probe.check <> 0 then
      Dsm_obs.Probe.emit t.probe
        (Clock_merge { time = now t; pid = Machine.pid p })
  end;
  if Addr.is_public write_region then begin
    let event_id = record_access t p ~kind:Event.Write ~target:write_region in
    let absorbed =
      check_access t p ~region:write_region ~cls:Plain_write ~v0 ~event_id
    in
    (* under total store order the writer absorbs the granule's whole
       history; under every weaker model [absorbed] is empty here *)
    if t.mh.write_acquires_order then
      Vector_clock.merge_into ~into:v0 absorbed
  end

(* Who takes the region locks of Algorithms 1–2 (Figure 3's destination
   lock included): the NIC verbs themselves under [Inline]; the
   detector's transaction under the two [_txn] transports, whose verbs
   then run [~locked:false]. *)
let txn_locks t =
  match t.config.Config.transport with
  | Config.Inline -> false
  | Config.Piggyback_txn | Config.Explicit_txn -> true

(* A transaction's lock span, tokens in acquisition order: nothing when
   the NIC verbs lock, one region for a batched run, two for a single
   transfer's read and write sides. *)
type span =
  | Nic_locks
  | One of Machine.token
  | Two of Machine.token * Machine.token

let nic_locks = function Nic_locks -> true | One _ | Two _ -> false

(* The read and write regions in the global (pid, offset) order: the
   paper's literal read-then-write order can deadlock two crossed
   transfers. *)
let lock_two t p ~read_region ~write_region =
  if not (txn_locks t) then Nic_locks
  else
    let first, second =
      if region_before write_region read_region then
        (write_region, read_region)
      else (read_region, write_region)
    in
    let tk1 = Machine.lock p first in
    let tk2 = Machine.lock p second in
    Two (tk1, tk2)

(* One lock over the span from region [first] to region [last]. *)
let lock_one t p ~(first : Addr.region) ~(last : Addr.region) =
  if not (txn_locks t) then Nic_locks
  else
    One
      (Machine.lock p
         (Addr.region ~pid:first.base.pid ~space:Addr.Public
            ~offset:first.base.offset
            ~len:(last.base.offset + last.len - first.base.offset)))

let unlock_span p = function
  | Nic_locks -> ()
  | One tk -> Machine.unlock p tk
  | Two (tk1, tk2) ->
      Machine.unlock p tk2;
      Machine.unlock p tk1

(* A transfer's direction: which side of a (src, dst) pair is remote. *)
type dir = Machine.dir = Put | Get

let kind_name = function Put -> "put" | Get -> "get"

(* One blocking checked operation (Algorithm 1 or 2): count it, then run
   the detection body and the data transfer inside the lock span. *)
let checked_op t p dir ~src ~dst =
  count_check t p ~kind:(kind_name dir);
  let span = lock_two t p ~read_region:src ~write_region:dst in
  check_op t p ~read_region:src ~write_region:dst;
  let extra_words = piggyback_words t and locked = nic_locks span in
  (match dir with
  | Put -> Machine.put p ~src ~dst ~extra_words ~locked ()
  | Get -> Machine.get p ~src ~dst ~extra_words ~locked ());
  unlock_span p span

let put t p ~src ~dst = checked_op t p Put ~src ~dst

let get t p ~src ~dst = checked_op t p Get ~src ~dst

(* ---------- batched checked operations ----------

   A batch is one run ({!Machine.check_batch}), and its data moves in
   one fabric message. Detection stays strictly per-operation — the
   same ticks, granule checks and merges as the unbatched path, so the
   race verdicts are identical — only the transport is coalesced: one
   message, one lock span, one piggybacked clock per run instead of one
   per op. *)

let remote dir ((src, dst) : Addr.region * Addr.region) =
  match dir with Put -> dst | Get -> src

let local dir ((src, dst) : Addr.region * Addr.region) =
  match dir with Put -> src | Get -> dst

let rec per_op t p dir = function
  | [] -> ()
  | (src, dst) :: rest ->
      checked_op t p dir ~src ~dst;
      per_op t p dir rest

let rec check_run t p dir = function
  | [] -> ()
  | (src, dst) :: rest ->
      count_check t p ~kind:(kind_name dir);
      check_op t p ~read_region:src ~write_region:dst;
      check_run t p dir rest

let rec any_public_local dir = function
  | [] -> false
  | pair :: rest -> Addr.is_public (local dir pair) || any_public_local dir rest

let rec last_pair = function
  | [ pair ] -> pair
  | _ :: rest -> last_pair rest
  | [] -> invalid_arg "Detector.last_pair: empty run"

(* A run checked and moved under one lock span over its remote side.
   A singleton is a plain {!checked_op}. A public local side (a put's
   source, a get's destination) would need its own lock — a read-side
   lock or Figure 3's — breaking the single-span scheme, so such runs
   fall back to per-op transfers; the explicit transport pays its
   control round trips per granule either way, so batching its data
   message would change nothing and it goes per-op too. *)
let checked_run t p dir pairs run =
  match (pairs, t.config.Config.transport) with
  | first :: _ :: _, (Config.Inline | Config.Piggyback_txn)
    when not (any_public_local dir pairs) ->
      let span =
        lock_one t p ~first:(remote dir first)
          ~last:(remote dir (last_pair pairs))
      in
      check_run t p dir pairs;
      let extra_words = piggyback_words t and locked = nic_locks span in
      (match dir with
      | Put -> Machine.put_batch p run ~extra_words ~locked ()
      | Get -> Machine.get_batch p run ~extra_words ~locked ());
      unlock_span p span
  | _ -> per_op t p dir pairs

(* The shape is checked once, before anything is counted, ticked or
   locked: a rejected batch leaves no trace, and the verb takes the
   checked run without walking it again. *)
let checked_batch t p dir pairs =
  checked_run t p dir pairs (Machine.check_batch p dir ~pairs)

let put_batch t p ~pairs = checked_batch t p Put pairs

let get_batch t p ~pairs = checked_batch t p Get pairs

(* Checked one-sided read-modify-writes (extension beyond the paper).

   The machine-level RMW runs first: whether it actually wrote (a failed
   compare-and-swap does not) decides the write-half marking, and that
   outcome is only known once the target NIC has applied the operation.
   Detection then performs the read half and the write half against the
   granule's V/W in one uninterrupted step — the meta-level mirror of
   the NIC's single region-lock hold — after acquiring the granule's S
   clock (see [check_granule]). Running detection after the fabric round
   trip is sound exactly because of that acquire: any RMW whose marks
   this access must not race with also released into S, and the two
   sides of a plain/RMW race stay concurrent whichever detection runs
   first, since plain accesses never release into S.

   [read_src] is a local staging region some RMWs (accumulate) read
   their operands from; when it is public it gets its own plain-read
   check, like [checked_op]'s read side. *)

(* Release the accessor's pre-RMW history into the granule's S clocks
   BEFORE the fabric round trip. The target NIC serializes RMWs on a
   granule under the region lock, so any RMW applied after this one
   observes this release at its own acquire no matter how the two reply
   deliveries interleave back at the origins. Without it a tie between
   reply events could run the later RMW's detection (and S acquire)
   before the earlier RMW's detection-time merge, and a poller that just
   observed a flag value could still be reported as racing with the
   flagger's earlier writes in some explored schedules. The release
   deliberately excludes the RMW's own tick — that mark joins V/W/S only
   at detection time, which is what keeps RMW/plain races visible. *)
let release_rmw_history t p ~(region : Addr.region) =
  if t.mh.rmw_acquires_order then begin
    record_rmw_sync t p ~region ~acquire:false;
    let node = region.base.pid in
    let pid = Machine.pid p in
    let v0 = t.procs.(pid) in
    let store = t.stores.(node) in
    let remote = remote_explicit t ~node ~pid in
    let g = ref (Clock_store.first_granule store region) in
    while !g >= 0 do
      let offset = Clock_store.granule_offset !g
      and len = Clock_store.granule_len !g in
      if remote then send_vput t p ~node ~offset ~len ~code:s_release_code v0
      else
        release_s t.mh store (Clock_store.entry_at store ~offset ~len) v0
          ~cur:(own_stamp t pid);
      g := Clock_store.next_granule store region !g
    done
  end

let checked_rmw t p ?read_src ~(region : Addr.region) ~run_op () =
  release_rmw_history t p ~region;
  let result, wrote = run_op ~extra_words:(piggyback_words t) in
  count_check t p ~kind:"atomic";
  let pid = Machine.pid p in
  let v0 = t.procs.(pid) in
  tick t p;
  (match read_src with
  | Some r when Addr.is_public r ->
      let event_id = record_access t p ~kind:Event.Read ~target:r in
      let absorbed =
        check_access t p ~region:r ~cls:Plain_read ~v0 ~event_id
      in
      Vector_clock.merge_into ~into:v0 absorbed
  | Some _ | None -> ());
  if t.mh.rmw_acquires_order then record_rmw_sync t p ~region ~acquire:true;
  let event_id = record_access t p ~kind:Event.Atomic_update ~target:region in
  let absorbed = check_access t p ~region ~cls:(Rmw { wrote }) ~v0 ~event_id in
  Vector_clock.merge_into ~into:v0 absorbed;
  if t.probe.on land Dsm_obs.Probe.check <> 0 then
    Dsm_obs.Probe.emit t.probe (Clock_merge { time = now t; pid });
  result

let check_rmw_target (target : Addr.global) =
  if target.space <> Addr.Public then
    invalid_arg "Detector.atomic: target is not public"

let fetch_add t p ~target ~delta =
  check_rmw_target target;
  checked_rmw t p
    ~region:(Addr.region_of_global target ~len:1)
    ~run_op:(fun ~extra_words ->
      (Machine.fetch_add p ~target ~extra_words ~delta (), true))
    ()

let cas t p ~target ~expected ~desired =
  check_rmw_target target;
  checked_rmw t p
    ~region:(Addr.region_of_global target ~len:1)
    ~run_op:(fun ~extra_words ->
      let ok = Machine.cas p ~target ~extra_words ~expected ~desired () in
      (ok, ok))
    ()

let accumulate t p ~src ~(dst : Addr.region) ~aop =
  if not (Addr.is_public dst) then
    invalid_arg "Detector.accumulate: dst is not public";
  checked_rmw t p ~read_src:src ~region:dst
    ~run_op:(fun ~extra_words ->
      (Machine.accumulate p ~src ~dst ~aop ~extra_words (), true))
    ()

let record_lock t ~pid ~phase ~lock ~time =
  match t.recorder with
  | None -> ()
  | Some rec_ -> (
      match phase with
      | `Acquire -> ignore (Recorder.lock_acquire rec_ ~time ~pid ~lock)
      | `Release -> ignore (Recorder.lock_release rec_ ~time ~pid ~lock))

(* User-level checked locks. [Machine.lock] provides the mutual
   exclusion; when [lock_aware_clocks] is set the lock also carries
   causality: release publishes the holder's clock into the lock's
   clock, acquire absorbs it — the classic release/acquire discipline
   the paper's algorithm lacks (experiment E11). *)
type lock_handle = { token : Machine.token; lock_region : Addr.region }

let lock_clock t (r : Addr.region) =
  match Hashtbl.find_opt t.lock_clocks r with
  | Some c -> c
  | None ->
      let c = Vector_clock.create ~n:t.dim in
      Hashtbl.add t.lock_clocks r c;
      c

let lock t p (r : Addr.region) =
  let token = Machine.lock p r in
  if t.recorder <> None then
    record_lock t ~pid:(Machine.pid p) ~phase:`Acquire
      ~lock:(Addr.to_string r) ~time:(now t);
  if t.config.Config.lock_aware_clocks then begin
    let v0 = t.procs.(Machine.pid p) in
    tick t p;
    Vector_clock.merge_into ~into:v0 (lock_clock t r);
    if t.probe.on land Dsm_obs.Probe.check <> 0 then
      Dsm_obs.Probe.emit t.probe
        (Clock_merge { time = now t; pid = Machine.pid p })
  end;
  { token; lock_region = r }

let unlock t p h =
  if t.config.Config.lock_aware_clocks then begin
    let v0 = t.procs.(Machine.pid p) in
    tick t p;
    Vector_clock.merge_into ~into:(lock_clock t h.lock_region) v0
  end;
  if t.recorder <> None then
    record_lock t ~pid:(Machine.pid p) ~phase:`Release
      ~lock:(Addr.to_string h.lock_region) ~time:(now t);
  Machine.unlock p h.token

let barrier_sync t =
  let merged = t.scratch_barrier in
  Vector_clock.reset merged;
  Array.iter (fun c -> Vector_clock.merge_into ~into:merged c) t.procs;
  Array.iter (fun c -> Vector_clock.merge_into ~into:c merged) t.procs;
  if t.probe.on land Dsm_obs.Probe.check <> 0 then
    for pid = 0 to Array.length t.procs - 1 do
      Dsm_obs.Probe.emit t.probe (Clock_merge { time = now t; pid })
    done

let on_barrier t ~pid ~phase ~generation ~time =
  match t.recorder with
  | None -> ()
  | Some rec_ -> (
      match phase with
      | `Enter -> ignore (Recorder.barrier_enter rec_ ~time ~pid ~generation)
      | `Exit -> ignore (Recorder.barrier_exit rec_ ~time ~pid ~generation))

let proc_clock t pid = Vector_clock.snapshot t.procs.(pid)

let iter_provenance t ~f =
  Array.iteri
    (fun node store -> Clock_store.iter_history store ~f:(f ~node))
    t.stores

let trace t = Option.map Recorder.finish t.recorder

let checked_ops t = t.checked_ops

(* Under the piggyback transports the true cost is what the machine's
   adaptive encoder actually shipped (delta, sparse or dense); the
   explicit transport counts its control payload words directly. *)
let clock_words_shipped t =
  match t.config.Config.transport with
  | Config.Inline | Config.Piggyback_txn -> Machine.clock_words_sent t.machine
  | Config.Explicit_txn -> t.clock_words_shipped

let storage_words t =
  Array.fold_left (fun acc s -> acc + Clock_store.storage_words s) 0 t.stores
  + Array.fold_left (fun acc c -> acc + Vector_clock.size_words c) 0 t.procs

(* Neither the stores nor the process clocks point back into the
   machine, so the traversal counts the clock state alone. *)
let clock_heap_words t = Obj.reachable_words (Obj.repr (t.stores, t.procs))

let epoch_clocks t =
  Array.fold_left (fun acc s -> acc + Clock_store.epoch_clocks s) 0 t.stores
  + Array.fold_left
      (fun acc c -> acc + if Vector_clock.is_epoch c then 1 else 0)
      0 t.procs
