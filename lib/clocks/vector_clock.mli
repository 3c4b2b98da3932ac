(** Vector clocks (Mattern 1988, the paper's reference [15]).

    A vector clock over [n] processes characterizes causality exactly
    (Charron-Bost's lower bound, §4.3 of the paper, shows [n] entries are
    also necessary): event [e1] happened-before [e2] iff
    [clock e1 < clock e2] componentwise. The paper's Algorithms 3 and 4 are
    {!compare} and {!merge}.

    Values are mutable: the simulator's processes and the per-datum clocks
    of the detector update them in place while holding the region lock, as
    prescribed by §4.2. Use {!copy} / {!snapshot} when a value must escape
    the critical section (e.g. into a trace).

    {2 Representation}

    Two representations and one promotion. A clock that has only ever
    been advanced by a single process is held as a compact
    FastTrack-style {e epoch} — a [(pid, count)] pair denoting the
    vector that is [count] at [pid] and zero elsewhere. The first entry
    of a second process (a cross-process merge, tick or {!set})
    promotes it to a dense array of {!dim} components, which it stays
    until {!reset}, {!assign} or {!load_words} gives it an epoch value.
    Epoch operands give {!tick}, {!merge_into}, {!compare} and {!leq}
    O(1), allocation-free fast paths; dense operands cost O(n), the
    paper's bound. The abstract value, and therefore every detection
    verdict, is the dense vector of Algorithms 3–4. *)

type t

val create : n:int -> t
(** [create ~n] is the zero clock of dimension [n] (all entries 0 —
    the paper's initial value, §4.2), held as the zero epoch. *)

val dim : t -> int
(** Number of processes the clock covers. *)

val generation : t -> int
(** How many times the clock has changed other than by {!tick}: a
    {!merge_into} (or {!merge_words}, {!merge_into_equal}) that raised a
    component, {!assign}, {!set}, {!reset} or {!load_words}. While it
    reads what it read at an earlier moment, the clock has changed since
    only through ticks. O(1). *)

val copy : t -> t

val assign : into:t -> t -> unit
(** [assign ~into src] makes [into] hold [src]'s value in [src]'s
    representation — {!copy} in place. [into] keeps its dense array, so
    once it has held a dense value an [assign] allocates nothing. O(1)
    when [src] is an epoch, O(dim) when it is dense. Raises
    [Invalid_argument] on dimension mismatch. *)

val set : t -> int -> int -> unit
(** [set c i x] sets component [i] to [x], raising or lowering it.
    O(1), unless it promotes. Lowering never demotes a dense clock
    (lowering an epoch's one entry to 0 gives the zero epoch); a second
    process's entry promotes as {!tick} does. Raises [Invalid_argument]
    when [i] is out of bounds or [x < 0]. *)

val of_array : int array -> t
(** [of_array a] is a clock holding [a]'s entries: an epoch when at
    most one is nonzero, a dense copy otherwise. Raises
    [Invalid_argument] if [a] is empty or contains a negative entry. *)

val to_array : t -> int array
(** Fresh array with the clock's entries — the wire representation. *)

val iter_active : (int -> int -> unit) -> t -> unit
(** [iter_active f c] calls [f pid tick] on each nonzero component of
    [c] in ascending pid order. O(1) for an epoch, one scan for a dense
    clock. *)

val diff_sizes : advance:bool -> since:t -> t -> int
(** [diff_sizes ~advance ~since v] counts, in one walk, [k] the nonzero
    components of [v] and [d] the components where [v] and [since]
    differ, and returns them packed as [k * (dim v + 1) + d] — an
    immediate int, so sizing allocates nothing. It is what the
    piggyback encoder prices a frame by: both arrays read directly for
    two dense clocks, O(1) for two epochs, one scan of the dimension
    otherwise.
    With [advance] it also leaves [since] equal to [v]: a dense [since]
    is patched at the changed components in the same walk, any other
    takes [v]'s value and representation as {!assign} would. Raises
    [Invalid_argument] on dimension mismatch. *)

val write_diff : since:t -> t -> int array -> off:int -> unit
(** [write_diff ~since v w ~off] writes [i; entry v i] at [w.(off)..]
    for each component where [v] and [since] differ, in ascending [i] —
    [entry v i] may be 0; the [2d] words for the [d] of {!diff_sizes}
    must fit. Same walk and cost as {!diff_sizes}. Raises
    [Invalid_argument] on dimension mismatch or an empty [w]. *)

val entry : t -> int -> int
(** [entry c i] is component [i]. Raises [Invalid_argument] when [i] is out
    of bounds. *)

val is_zero : t -> bool

val is_epoch : t -> bool
(** True while the clock is held in the compact epoch representation
    (introspection for tests, benchmarks and storage statistics); a
    dense clock otherwise. *)

val active_entries : t -> int
(** Number of nonzero components — the pairs a sparse wire payload
    carries. O(1) for an epoch, O(dim) for a dense clock. *)

val tick : t -> me:int -> unit
(** [tick c ~me] increments component [me]: the paper's
    [update_local_clock] step performed before every event (§4.2). *)

val merge_into : into:t -> t -> unit
(** [merge_into ~into src] sets [into] to the componentwise maximum of
    [into] and [src] — Algorithm 4 ([max_clock]) applied in place.
    Raises [Invalid_argument] on dimension mismatch. *)

val merge_into_equal : into:t -> t -> bool
(** [merge_into_equal ~into src] is {!merge_into} that also tells
    whether [into] now equals [src] — whether [into <= src] held before.
    One walk when both clocks are dense; otherwise {!leq}, then the
    merge. *)

val merge : t -> t -> t
(** Pure Algorithm 4: fresh componentwise maximum. *)

val compare : t -> t -> Order.t
(** Algorithm 3. [compare a b] is
    {!Order.Equal} when all components agree, {!Order.Before} when
    [a <= b] componentwise with at least one strict, {!Order.After} for the
    converse, and {!Order.Concurrent} when neither dominates — the race
    verdict of Lemma 1. The scan exits early once both a lower and a
    higher component have been seen (the verdict is already
    [Concurrent]), and is O(1) when both operands are epochs.
    Raises [Invalid_argument] on dimension mismatch. *)

val leq : t -> t -> bool
(** [leq a b] iff [compare a b] is [Equal] or [Before]. O(1) when [a] is
    an epoch. *)

val concurrent : t -> t -> bool
(** [concurrent a b] iff no causal order exists between [a] and [b]. *)

val size_words : t -> int
(** Words needed on the wire (the §4.3 linear-in-[n] cost measured by
    experiment E6). Representation-independent: always {!dim}. *)

val snapshot : t -> t
(** Alias for {!copy}, named for its use when capturing a clock into an
    immutable trace record. *)

val reset : t -> unit
(** Zero every component in place, restoring the compact epoch
    representation. O(1) (the dense array keeps its capacity, so a
    warmed-up scratch clock never allocates again); the
    scratch-buffer discipline of the detector's hot path
    ([Detector.check_access]) relies on this being cheap. *)

val load_words : t -> int array -> off:int -> unit
(** [load_words c w ~off] overwrites [c] with the [dim c] words at
    [w.(off) ..] — the allocation-free counterpart of {!of_array} used to
    decode clocks arriving on the wire into a scratch clock. Re-derives
    the representation, as {!of_array} does. Raises
    [Invalid_argument] on a short slice or negative entry. *)

val store_words : t -> int array -> off:int -> unit
(** [store_words c w ~off] writes the [dim c] components into [w] at
    [off] — the allocation-free counterpart of {!to_array}. *)

val merge_words : into:t -> int array -> off:int -> unit
(** [merge_words ~into w ~off] merges the clock encoded in the slice
    directly into [into] — {!merge_into} without materializing the
    source ({!Detector}'s explicit-transport update path). *)

val write : Buffer.t -> t -> unit
(** Appends [<a,b,c>] to the buffer, each component as
    {!Dsm_obs.Json_writer.int} writes it. *)

val pp : Format.formatter -> t -> unit
(** Prints as [<a,b,c>]. *)

val to_string : t -> string
(** [<a,b,c>], through {!write}. *)
