(** The simulated parallel machine: nodes, NIC agents, one-sided operations.

    A {!t} bundles [n] nodes (each a [Dsm_memory.Node_memory.t]), a fabric,
    and one NIC agent per node. The NIC agent services remote accesses
    {e without any participation of the target process} — the OS-bypass /
    one-sided property of §3.2 the whole paper rests on: the target
    program is never scheduled to handle a [put] or [get] directed at its
    public memory.

    Programs run as simulated processes ({!spawn}) and talk to the machine
    through a {!proc} handle. All data operations are expressed against
    [Dsm_memory.Addr] regions; remote regions must be public.

    One data path exists, with one locking decision: by default the
    data verbs ({!put}, {!get}, {!put_batch}, {!get_batch}) take the
    region locks in the NICs themselves, giving §3.2's atomicity —
    including Figure 3's "put delayed until the end of the get". With
    [~locked:false] they take none: the caller already holds them
    through the explicit {!lock}/{!unlock} service, the building blocks
    with which the race detector's transaction transports implement the
    paper's Algorithm 1/2 transactions. RMWs ({!fetch_add}, {!cas},
    {!accumulate}) always lock at the target NIC.

    Every verb runs as four steps. {b Issue}: [Op_begin] and the
    request sent ([Msg_sent]). {b Lock}: once it is delivered
    ([Msg_delivered]), the target NIC takes the range lock if locked.
    {b Apply}: the memory effect and its one event on the probe bus:
    [Write_applied] or [Read_served] in the [Dsm_obs.Probe.apply] class,
    [Atomic_applied] or [Acc_applied] in the [Dsm_obs.Probe.rmw] class,
    then the release and the reply. {b Complete}: the
    reply fills the initiator's pending operation, and the resumed
    process fires [Op_end]. DESIGN.md §14 places every probe.

    The [Control] plane ({!control}, {!set_control_handler}) lets upper
    layers install named services on every node (clock storage, barrier
    masters, ...) whose messages are priced by the same fabric.

    Delivery is the fabric's business: each protocol message is one
    [Dsm_net.Fabric.post] of the message and its clock piggyback's
    header, and the NIC agent's receive handler checks the header
    against its edge and runs the message. Under a faulty fabric, the
    fabric's [reliable] transport makes that channel in-order and
    exactly-once again. *)

type t

type proc
(** A program's handle on the machine: its pid plus the machine itself. *)

type protocol_bug = Skip_get_dst_lock | Skip_rmw_write_mark
    (** Deliberately plantable protocol bugs, used by the schedule
        explorer's acceptance tests. [Skip_get_dst_lock] elides the
        Figure 3 destination-region lock during a {!get}'s round trip,
        so a concurrent put can land inside the get window — exactly the
        atomicity violation §3.2 exists to prevent.
        [Skip_rmw_write_mark] breaks a single-word RMW in two: the read
        half still runs under the target region lock, but the write half
        is applied after releasing it, as a separate delay-0 event. A
        concurrent put or RMW can land in between, so the write commits
        a stale value — the lost update the coherence checker's RMW
        oracle ({!Coherence.rmw_violations}) must flag on some explored
        schedule. *)

val create :
  Dsm_sim.Engine.t ->
  n:int ->
  ?latency:Dsm_net.Latency.t ->
  ?private_words:int ->
  ?public_words:int ->
  ?faults:Dsm_net.Fault.t ->
  ?reliable:bool ->
  ?protocol_bugs:protocol_bug list ->
  ?model:Model.t ->
  unit ->
  t
(** Defaults: {!Dsm_net.Latency.infiniband_like} over a fully
    connected fabric, 4096-word segments, a fault-free fabric. The
    [faults] plan and [reliable] (default [false]) are forwarded to
    [Dsm_net.Fabric] for robustness testing: the one-sided protocols
    assume reliable delivery, so without [reliable] drops surface as
    blocked operations, and with it the fabric's transport rides them
    out.
    [protocol_bugs] defaults to none. [model] (default {!Model.default}, the paper's
    [Nic_atomic]) selects the memory-model backend whose protocol hooks
    govern put atomicity, get-delays-put serialization and put-lane
    FIFO ordering — see {!Model.hooks}; the default is bit-identical to
    the pre-model machine. Raises [Invalid_argument] if [n < 1]. *)

val reset : t -> unit
(** [reset m] returns the machine to its freshly-[create]d state in
    place — the arena-reuse path of the schedule explorer's per-run cost
    attack. Node memories, pending operations, remote-lock bookkeeping,
    reliable-transport state and control handlers are all cleared;
    fabric handlers stay registered. Must be called {e after}
    [Dsm_sim.Engine.reset] on the owning engine: the fabric re-splits its
    generator from the engine's root stream exactly as construction did,
    so a reset machine is bit-identical to a fresh one. Upper layers'
    control planes (the detector's) must re-attach. The probe bus lives
    on the engine and keeps its sinks: a per-run consumer such as
    [Coherence] is attached once and reset per run. *)

val sim : t -> Dsm_sim.Engine.t

val model : t -> Model.t
(** The memory-model backend the machine was created under. *)

val n : t -> int

val node : t -> int -> Dsm_memory.Node_memory.t
(** Direct (meta-level) access to a node's memory — used by tests and by
    experiment setup/validation code, not by simulated programs. *)

val fabric_messages : t -> int
(** Messages the fabric carried so far (see [Dsm_net.Fabric]). *)

val fabric_words : t -> int

val wire_words_sent : t -> int
(** True wire words the fabric shipped (see [Dsm_net.Fabric.wire_words_sent]):
    nominal sizes with each clock-carrying message's [extra_words]
    allowance replaced by the piggyback encoding actually chosen. Equal
    to {!fabric_words} while no clock source is installed. *)

val clock_words_sent : t -> int
(** Clock-piggyback words within {!wire_words_sent} — the true cost of
    shipping clocks under the installed {!set_clock_source} encoding. *)

val set_clock_source : t -> Dsm_clocks.Vector_clock.t array -> unit
(** [set_clock_source m clocks] makes every clock-carrying protocol
    message ([Put], [Put_batch], [Get_reply], [Atomic_reply],
    [Acc_reply], [Lock_granted]) ship the sender's current clock
    [clocks.(pid)] — read at send time, so the clocks may be advanced in
    place — as an adaptive [Delta] piggyback against a per-[(src, dst)]
    edge cache of the last clock sent on that channel. Accounting-only:
    the piggyback is priced, not built. One call of
    [Dsm_clocks.Codec.size_piggyback_edge] picks the codec, sizes the
    frame for {!clock_words_sent} and advances the cache in the same
    walk, and the message carries only the frame's header; the latency
    model still prices the nominal [extra_words] allowance, so
    installing a source cannot perturb a schedule. The receiver checks
    each header with [Dsm_clocks.Codec.check_header]: a delta out of
    sequence on its edge, or on an edge that has delivered nothing,
    raises. On a faulty fabric without [reliable], encoding degrades
    to the self-contained [Sparse] frame — deltas are only sound on
    in-order exactly-once channels, which the reliable transport
    restores: it drops duplicates and holds back early frames before
    the handler runs, so a resent delta meets its own base. Cleared by
    {!reset}.

    Each edge remembers the sender clock's
    [Dsm_clocks.Vector_clock.generation] at its last frame. Between two
    frames, clock [clocks.(p)] must change without a generation step
    only through ticks of its own component [p] (of component 0 when
    it has one component), as the detector's process clocks do: then an
    unchanged generation lets a [Delta] edge price the frame in O(1)
    ([Dsm_clocks.Codec.size_piggyback_ticked]) with the same result. *)

val clock_encodings : t -> int * int * int
(** [(dense, sparse, delta)] piggybacks encoded since creation (or
    {!reset}); a retransmitted frame is not recounted. *)

val transport_retransmits : t -> int
(** Frames the fabric's reliable transport resent so far (0 when
    disabled). *)

val pending_ops : t -> int
(** Operations still waiting for a reply (acks, data, atomics, locks,
    control). Nonzero after a run means the protocol wedged — the
    explorer checks this invariant after every schedule. *)

val locks_quiescent : t -> bool
(** [true] iff no NIC lock table holds or queues any range — every
    region lock taken during the run was released. *)

val lock_grants_chained : t -> int
(** Monotone count, summed over all NIC lock tables, of grants issued
    from inside a release — i.e. queued waiters woken synchronously
    within another origin's event (see {!Dsm_memory.Lock_table}). The
    schedule explorer samples this at every choice point: an event whose
    execution advances it ran work its footprint label cannot express,
    so the DPOR layer treats it as dependent with everything. *)

(** {1 Processes} *)

val spawn : t -> pid:int -> ?name:string -> (proc -> unit) -> unit
(** [spawn m ~pid body] starts [body] as the program of process [pid].
    Several programs may share a pid only in tests; normal setups spawn
    one per node. A failure names the process [name], ["P<pid>"] when
    none is given. *)

val spawn_all : t -> (proc -> unit) -> unit
(** SPMD helper: spawn the same program on every node. *)

val proc : t -> pid:int -> proc
(** A detached handle (for driving the machine from setup code in tests). *)

val pid : proc -> int

val compute : proc -> float -> unit
(** Model [dt] microseconds of local computation. *)

val run : t -> Dsm_sim.Engine.outcome
(** Convenience: run the underlying engine to its end. *)

(** {1 Allocation} *)

val alloc_public :
  t -> pid:int -> ?name:string -> len:int -> unit -> Dsm_memory.Addr.region
(** Meta-level allocation in a node's public segment: plays the compiler's
    role of placing shared data (§3.1). *)

val alloc_private :
  t -> pid:int -> ?name:string -> len:int -> unit -> Dsm_memory.Addr.region

(** {1 One-sided data operations}

    Each verb takes [?locked] (default [true]): the NICs lock the
    regions the operation touches. [~locked:false] means the caller
    already holds those locks through {!lock} — the target range for a
    put, the source range for a get, and for a get also Figure 3's lock
    on a public destination — and the verb takes none. *)

val put :
  proc -> src:Dsm_memory.Addr.region -> dst:Dsm_memory.Addr.region ->
  ?extra_words:int -> ?ack:bool -> ?locked:bool -> unit -> unit
(** [put p ~src ~dst ()] copies [src] (a region of [p]'s own memory,
    private or public) into [dst] (a {e public} region of any process) —
    one data message (§3.2, Figure 2). With [ack = true] (default) the
    call blocks until the remote write has happened, making the put a
    transaction; with [ack = false] it returns as soon as the message is
    injected, the paper's bare one-message put. With [locked] the target
    NIC applies the write under the range lock.
    Raises [Invalid_argument] on length mismatch, a non-local [src], or a
    non-public [dst]. *)

val get :
  proc -> src:Dsm_memory.Addr.region -> dst:Dsm_memory.Addr.region ->
  ?extra_words:int -> ?locked:bool -> unit -> unit
(** [get p ~src ~dst ()] copies the {e public} region [src] of any process
    into [p]'s own region [dst]. Two messages (request + data, §3.2,
    Figure 2); blocking, as the paper requires. With [locked] the target
    NIC reads under the range lock and, while the get is in flight,
    [p]'s NIC holds the lock on a public [dst], so a concurrent put to
    the same place is delayed — Figure 3. Landing in a public [dst] is
    published as a [Write_applied] by [p] on its own node. *)

(** {2 Batches}

    A batch is one {e run}: a list of [(src, dst)] pairs whose remote
    sides (a put's destinations, a get's sources) all sit on one node
    in ascending address order. {!check_batch} is the one definition of
    that shape, and the only way to make a {!run}: {!put_batch} and
    {!get_batch} take the run it returned, so a batch's preconditions
    are walked once, before anything is sent — and, in the checked
    layer, before anything is counted, ticked or locked. *)

type dir = Put | Get  (** which side of a pair is remote *)

type run
(** The pairs of a batch {!check_batch} accepted, uncopied. *)

val check_batch :
  proc -> dir ->
  pairs:(Dsm_memory.Addr.region * Dsm_memory.Addr.region) list -> run
(** Raises [Invalid_argument], naming [put_batch] or [get_batch], unless
    [pairs] is non-empty, every pair meets its verb's preconditions
    (local source and public destination for a put, public source and
    local destination for a get, equal lengths), every remote side is
    on the first pair's node, and the remote sides ascend: put
    destinations without overlapping, get sources contiguously.
    Otherwise returns [pairs] as a run, with no other effect. *)

val put_batch :
  proc -> run -> ?extra_words:int -> ?locked:bool -> unit -> unit
(** [put_batch p run ()] performs every [(src, dst)] put of [run], which
    [check_batch p Put] returned, as {e one} fabric message: the target
    NIC takes a single lock spanning the batch, applies each part as its
    own write, and answers with a single ack. A singleton batch
    degenerates to {!put}. With [~locked:false] the caller holds a lock
    covering the batch's span. *)

val get_batch :
  proc -> run -> ?extra_words:int -> ?locked:bool -> unit -> unit
(** [get_batch p run ()] performs every [(src, dst)] get of [run], which
    [check_batch p Get] returned, with one request/data round trip: the
    contiguous sources are fetched as a single span and scattered into
    the destinations locally. With [locked], Figure 3 locks are held on
    every public destination for the whole round trip; with
    [~locked:false] the caller holds the source span's lock and every
    destination's. A singleton batch degenerates to {!get}. *)

val fetch_add :
  proc -> target:Dsm_memory.Addr.global -> ?extra_words:int -> delta:int ->
  unit -> int
(** Atomic read-modify-write at the target NIC; returns the old value.
    [extra_words] models piggybacked metadata, as on the data messages. *)

val cas :
  proc -> target:Dsm_memory.Addr.global -> ?extra_words:int -> expected:int ->
  desired:int -> unit -> bool
(** Compare-and-swap; [true] iff the swap happened. *)

val accumulate :
  proc -> src:Dsm_memory.Addr.region -> dst:Dsm_memory.Addr.region ->
  ?aop:Message.acc_op -> ?extra_words:int -> unit -> int array
(** [accumulate p ~src ~dst ~aop ()] is the generalized one-sided RMW of
    §5.2: the local operands in [src] are combined element-wise
    ([aop] defaults to [Add]) into the remote public span [dst], the
    whole span read-modified-written under a single region lock hold at
    the target NIC. Returns the values the span held {e before} the
    update, making the operation a span-wide fetch-and-op. Raises
    [Invalid_argument] on length mismatch, an empty region, a non-local
    [src] or a non-public [dst]. *)

(** {1 Lock service (detector building blocks)} *)

type token
(** A held lock. Tokens are not transferable between processes. *)

val lock : proc -> Dsm_memory.Addr.region -> token
(** [lock p r] acquires exclusive access to region [r]:
    - private region of [p] itself: free (the paper's "no need of a real
      lock" in private space) — returns immediately;
    - public region of [p]: local NIC lock, no messages; granted on
      the spot when uncontended ([Dsm_memory.Lock_table.try_acquire]),
      so the process runs on with no event in between, and otherwise
      suspended in the NIC's queue until a release grants it, in
      arrival order;
    - public region of another process: one request/grant round trip,
      waiting in the remote NIC's queue if the range is held.
    Raises [Invalid_argument] for a private region of another process. *)

val unlock : proc -> token -> unit
(** Releases. Remote releases are a single asynchronous message (FIFO
    ordering makes waiting for confirmation unnecessary). *)

(** {1 Control plane} *)

val set_control_handler :
  t ->
  tag:string ->
  (node:int -> origin:int -> int array -> int array option) ->
  unit
(** [set_control_handler m ~tag f] installs service [f] on every NIC. On a
    [Control] message with this [tag], the target NIC runs
    [f ~node ~origin words]; [Some reply] sends a [Control_reply].
    Raises [Invalid_argument] if [tag] is taken. *)

val control :
  proc -> target:int -> tag:string -> words:int array -> int array
(** Round-trip control request; blocks for the reply. [Failure] at
    delivery time if the service replies [None] or is not installed. *)

val control_async :
  proc -> target:int -> tag:string -> words:int array -> unit
(** One-way control message (no reply expected). *)

val control_notify :
  t -> src:int -> dst:int -> tag:string -> words:int array -> unit
(** NIC-initiated one-way control message: lets a control handler (which
    runs on a NIC, not in a process) talk to other NICs — e.g. a barrier
    coordinator broadcasting its release. Priced like any message. *)

