(** The race detector: the paper's Algorithms 1–5 as a checked layer over
    the one-sided operations.

    Usage mirrors the paper's deployment ("implemented in the
    communication library", §5): programs call {!put} and {!get} instead
    of the machine's primitives, and the detector

    + takes the region locks (Algorithm 1/2's [lock] lines — transaction
      transports only),
    + ticks the accessor's clock ([update_local_clock]),
    + compares it with the datum's clocks ([compare_clocks], Algorithm 3)
      and {e signals} — never aborts — on incomparability (Lemma 1, §4.4),
    + performs the transfer,
    + merges the accessor's clock into the datum's clocks
      ([update_clock] / [update_clock_W], Algorithms 4–5), and
    + releases the locks.

    Reads are checked against the write clock [W] when
    {!Config.use_write_clock} is set, so concurrent read-only accesses are
    not flagged (§4.4, Figure 4); writes are checked against the
    general-purpose clock [V]. A read also {e absorbs} the write clock of
    the data it observed, which is how inter-process causality propagates
    (Figure 5b's "no race" case).

    A [put ~src ~dst] is treated as a read of [src] (when [src] is public
    — another process could be writing it) plus a write of [dst]; a
    [get ~src ~dst] is a read of [src] plus a write of [dst] (when [dst]
    is public). Private-side halves cannot race (single-threaded
    processes, §4's note on locks in private space) and are neither
    checked nor recorded. *)

type t

val create :
  Dsm_rdma.Machine.t -> ?config:Config.t -> ?verbose:bool -> unit -> t
(** One detector per machine. Installs the clock control-plane services
    (explicit transport) on the machine's NICs. [verbose] makes every
    race signal print through [Logs]. An omitted [config] is
    {!Config.default}. The memory model's hooks come from
    {!Dsm_rdma.Machine.model}, so the detector's happens-before edges
    match the protocol that produced the messages by construction. *)

val machine : t -> Dsm_rdma.Machine.t

val report : t -> Report.t

(** {1 Shared-data declaration} *)

val register : t -> Dsm_memory.Addr.region -> unit
(** Declares a public region as one shared variable (the compiler's job,
    §3.1). Required before access under {!Config.Variable} granularity. *)

val alloc_shared :
  t -> pid:int -> ?name:string -> len:int -> unit -> Dsm_memory.Addr.region
(** Allocate in [pid]'s public segment and {!register} in one step. *)

(** {1 Checked one-sided operations} *)

val put :
  t -> Dsm_rdma.Machine.proc ->
  src:Dsm_memory.Addr.region -> dst:Dsm_memory.Addr.region -> unit
(** Algorithm 1. Blocking. *)

val get :
  t -> Dsm_rdma.Machine.proc ->
  src:Dsm_memory.Addr.region -> dst:Dsm_memory.Addr.region -> unit
(** Algorithm 2. Blocking. *)

val put_batch :
  t -> Dsm_rdma.Machine.proc ->
  pairs:(Dsm_memory.Addr.region * Dsm_memory.Addr.region) list -> unit
(** Checked puts with batched coherence: maximal runs of consecutive
    pairs whose destinations sit on one node in ascending
    non-overlapping order (and whose sources are private) travel as a
    single fabric message under a single lock span, shipping one
    piggybacked clock for the whole run. Detection is per-operation and
    bit-identical to issuing each {!put} separately — only the
    transport is coalesced. Pairs that don't extend a run (node change,
    descending address, public source, Explicit transport) fall back to
    {!put}. *)

val get_batch :
  t -> Dsm_rdma.Machine.proc ->
  pairs:(Dsm_memory.Addr.region * Dsm_memory.Addr.region) list -> unit
(** Checked gets with batched coherence: maximal runs of contiguous
    ascending same-node sources (with private destinations) collapse
    into one request/data round trip over the union span. Detection is
    per-operation, identical to {!get}. *)

(** {1 Checked one-sided RMW operations (extension beyond the paper)}

    An RMW is atomically both a read and a write against the granule's
    V/W clocks: it read-marks V, write-marks W when it actually wrote (a
    failed compare-and-swap leaves W untouched), and both its halves are
    checked under one hold — a writing RMW compares against V (which
    contains W), a read-only one against W like a plain read. Because the
    target NIC applies every RMW on a granule under the same region
    lock, RMWs are genuinely serialized there; the detector models this
    as a release/acquire chain through the granule's S clock, so two
    RMWs never race with each other while every concurrent RMW/plain
    pair is still signalled. The machine operation runs before the
    detection step: the write-half marking needs the outcome, and the S
    acquire makes the late check sound. *)

val fetch_add :
  t -> Dsm_rdma.Machine.proc -> target:Dsm_memory.Addr.global -> delta:int ->
  int
(** Checked atomic add; returns the old value. *)

val cas :
  t -> Dsm_rdma.Machine.proc -> target:Dsm_memory.Addr.global ->
  expected:int -> desired:int -> bool
(** Checked compare-and-swap. A failed swap is a read-only RMW: the
    target is read-marked but not write-marked, so it does not race with
    concurrent plain reads — only with concurrent writes. *)

val accumulate :
  t -> Dsm_rdma.Machine.proc -> src:Dsm_memory.Addr.region ->
  dst:Dsm_memory.Addr.region -> aop:Dsm_rdma.Message.acc_op -> int array
(** Checked generalized accumulate (§5.2): element-wise RMW of the whole
    public span [dst] with the local operands in [src], applied at the
    target under one region lock hold and checked as one RMW access over
    the span. Returns the span's prior contents. A public [src] gets its
    own plain-read check first. *)

(** {1 Checked user-level locks}

    [Dsm_rdma.Machine.lock] wrapped for debugged programs: the lock
    events are trace-recorded, and — when
    {!Config.lock_aware_clocks} is set (an extension; the paper's
    algorithm has no lock/clock interaction) — the lock carries
    causality: {!unlock} publishes the holder's clock into a per-lock
    clock, {!lock} absorbs it, so lock-ordered critical sections stop
    being reported as races (experiment E11). *)

type lock_handle

val lock : t -> Dsm_rdma.Machine.proc -> Dsm_memory.Addr.region -> lock_handle
(** Blocking; same lock semantics and cost as [Machine.lock]. *)

val unlock : t -> Dsm_rdma.Machine.proc -> lock_handle -> unit

(** {1 Synchronization hooks} *)

val barrier_sync : t -> unit
(** Models the causal effect of a full barrier: every process clock
    becomes the merge of all process clocks. Called by the PGAS barrier
    after its last participant arrives. *)

val on_barrier :
  t -> pid:int -> phase:[ `Enter | `Exit ] -> generation:int -> time:float ->
  unit
(** Trace-records one process's barrier crossing (no clock effect). *)

(** {1 Introspection} *)

val proc_clock : t -> int -> Dsm_clocks.Vector_clock.t
(** Snapshot of a process's current clock. *)

val iter_provenance :
  t ->
  f:(node:int -> offset:int -> len:int -> Provenance.entry list -> unit) ->
  unit
(** Visit every granule whose history (the ring behind
    [Report.race.prior], depth [Config.provenance_depth]) retains an
    access, in (node, offset, len) order; entries newest first. Visits
    nothing when the depth is 0. *)

val trace : t -> Dsm_trace.Trace.t option
(** The recorded trace so far ([Config.record_trace] runs only). *)

val checked_ops : t -> int

val clock_words_shipped : t -> int
(** Clock words that travelled on the wire. Under the piggyback
    transports this is the {e true} size of the adaptive delta/sparse/
    dense piggyback encoding (read from the machine's fabric counters);
    under the explicit transport it is the control payload words. *)

val storage_words : t -> int
(** Clock storage held across all nodes and processes: the §5.1 memory
    overhead. Representation-independent (an epoch clock is still
    charged as a full vector — the paper's cost model). *)

val clock_heap_words : t -> int
(** Heap words the clock state keeps reachable, headers included: every
    node's clock store (its V/W/S clocks, stamps, access-history rings
    and variable index) and the process clocks. The measured
    counterpart of {!storage_words}'s formula; it counts what a
    representation really holds, arrays kept across [reset] included.
    Deterministic for a deterministic run. *)

val epoch_clocks : t -> int
(** How many clocks (per-datum and per-process) are currently held in
    the compact epoch representation — the fraction of the clock
    population the epoch fast path is winning on. *)
