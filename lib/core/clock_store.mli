(** Per-node clock metadata: the [V] and [W] clocks attached to every
    shared piece of data (§4.1–4.2).

    One store lives (conceptually in NIC memory) on each node and maps
    {e granules} of that node's public segment to a pair of clocks. A
    granule is the unit of detection chosen by {!Config.granularity}:
    the registered shared variable, an aligned block, or a single word.
    Each granule's entry also holds its access history
    ({!Provenance.ring}), so the store is the one place that knows how
    granules are keyed.

    Entries are created lazily with zero, unstamped clocks — the
    paper's initial value — and updated in place while the NIC lock on
    the covering region is held (§4.2's no-self-race argument).

    The table is keyed by the granule's [(offset, len)] packed into a
    single immediate [int] and hashed by an int-specialized hashtable, so
    the per-access lookup neither allocates nor runs polymorphic
    comparison; {!first_granule} walks the granules of an access without
    building a list. Registered variables live in an address-sorted index
    (two int arrays), so finding the ones an access touches is a binary
    search, not a walk over every variable of the node. *)

type entry = {
  v : Dsm_clocks.Vector_clock.t;
      (** general-purpose clock: all plain accesses *)
  w : Dsm_clocks.Vector_clock.t;  (** write clock: plain writes only (§4.4) *)
  mutable s : Dsm_clocks.Vector_clock.t;
      (** synchronization clock: atomic read-modify-writes. Atomics are
          NIC-serialized, so they never race with each other; they act as
          writes towards plain accesses and as release/acquire points for
          causality (extension beyond the paper, see
          [Detector.fetch_add]). Until the first release it is the
          store's shared zero clock: write it only through
          {!sync_clock} *)
  mutable vs : Dsm_clocks.Stamp.t;
      (** [v]'s owner stamp, {!Dsm_clocks.Stamp.none} when unknown: the
          detector keeps it as it merges into [v] *)
  mutable ws : Dsm_clocks.Stamp.t;  (** [w]'s owner stamp *)
  mutable ss : Dsm_clocks.Stamp.t;  (** [s]'s owner stamp *)
  mutable history : Provenance.ring;
      (** the granule's recent checked accesses, {!Provenance.empty}
          until the detector notes one (never at
          [provenance_depth = 0]); observation-only, and not counted by
          {!storage_words} *)
}

type t

val create : node:int -> clock_dim:int -> granularity:Config.granularity -> t
(** [clock_dim] is the vector dimension ([n], or 1 in the Lamport
    ablation). *)

val register : t -> Dsm_memory.Addr.region -> unit
(** Declares a shared variable ({!Config.Variable} granularity): the
    compiler's role of §3.1. The region must be public, on this node, and
    must not overlap a previously registered variable.
    No-op under block/word granularity. Costs O(log k + k) for a node
    with [k] variables: a binary search for overlap, then an in-place
    insertion (O(log k) when the variable lands above every other). *)

val first_granule : t -> Dsm_memory.Addr.region -> int
(** [first_granule t r] is the first granule covering an access to [r],
    in address order, as a cursor: an immediate int that
    {!granule_offset} and {!granule_len} read, or [-1] when there is
    none. With {!next_granule} it walks the granules without
    materializing regions, lists or closures — the detector's hot path.
    Under {!Config.Variable}, raises [Failure] {e before} the walk
    starts if an accessed word falls outside every registered variable
    — shared data must be declared — and costs O(log k + covered) for a
    node with [k] variables. Raises [Invalid_argument] when [r] is on
    another node or the granule lies outside {!entry_at}'s range. *)

val next_granule : t -> Dsm_memory.Addr.region -> int -> int
(** [next_granule t r g] is the granule after [g] in the walk of an
    access to [r], or [-1] after the last. O(1), plus one O(log k)
    search under {!Config.Variable} when the access spans another
    variable. Computed from [g]'s coordinates, so variables registered
    between two steps (while the walker was suspended) do not disturb
    the walk. *)

val granule_offset : int -> int
(** The first word of a granule cursor. *)

val granule_len : int -> int
(** The length in words of a granule cursor. *)

val entry_at : t -> offset:int -> len:int -> entry
(** The entry of one granule identified by its raw coordinates (as
    read from a {!first_granule} cursor); lazily created with zero
    clocks and an empty history. Allocation-free on the hit path.
    Raises [Invalid_argument] outside [0 <= offset <= 2^40],
    [0 <= len < 2^21], the range the table's packed key holds. *)

val sync_clock : t -> entry -> Dsm_clocks.Vector_clock.t
(** [sync_clock t e] is [e.s], ready to be merged into: the shared zero
    clock an entry starts with is replaced here, on the first release,
    by a clock of the entry's own. *)

val iter_history :
  t -> f:(offset:int -> len:int -> Provenance.entry list -> unit) -> unit
(** Visit every granule with retained history in (offset, len) order;
    entries newest first. Granules with empty history are skipped. *)

val storage_words : t -> int
(** Total words of clock metadata held: [2 × clock_dim] per entry, plus
    [clock_dim] per entry whose [S] an atomic touched — the §5.1
    storage-overhead numerator measured in E7. Representation-
    independent (an epoch still models a full vector). The access
    history is not clock metadata and is not counted. *)

val epoch_clocks : t -> int
(** How many of the materialized clocks (3 per entry) are currently held
    in a compact (epoch or sparse-pair) form — introspection for
    benchmarks and tests. *)
