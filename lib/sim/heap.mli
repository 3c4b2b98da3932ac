(** Binary min-heap keyed by [(time, sequence)].

    The event queue of the discrete-event engine. Ties on simulated time are
    broken by insertion sequence number, which makes the whole simulation
    deterministic: two events scheduled for the same instant fire in the
    order they were scheduled.

    The entries live in parallel arrays (a flat [float array] of times,
    [int array]s of sequence numbers, labels and value slots), so {!add}
    and {!pop_min} allocate nothing. Each value is written once into a
    slot array when added and cleared once when removed; the sifts move
    only the flat arrays and run no write barrier. *)

type 'a t

val create : dummy:'a -> 'a t
(** An empty heap. [dummy] fills the slots no entry occupies: a popped
    or cleared value is not kept reachable by the heap. *)

val is_empty : 'a t -> bool

val add : 'a t -> time:float -> seq:int -> label:Label.t -> 'a -> unit
(** [add h ~time ~seq ~label v] inserts [v] with priority [(time, seq)].
    [label] is the event's declared footprint ({!Label.unknown} when
    there is none), carried for the benefit of {!ready_view}; it never
    affects ordering. *)

val min_time : 'a t -> float
(** The time of the minimum entry. Raises [Invalid_argument] on an empty
    heap. *)

val min_at : 'a t -> float -> bool
(** [min_at h t] holds when [h] is not empty and its minimum entry is at
    time [t]: the test {!min_time} would answer, without returning a
    float. *)

val pop_min : 'a t -> 'a
(** Removes the minimum entry and returns its value: {!pop} without the
    option and the tuple. Raises [Invalid_argument] on an empty heap. *)

val pop : 'a t -> (float * int * 'a) option
(** Removes and returns the minimum element, or [None] when empty. *)

val ready_count : 'a t -> int
(** Number of entries sharing the minimum time — the {e ready set} at the
    current instant, i.e. the branching factor of the scheduler's next
    choice point (see [Engine.set_chooser]). 0 when empty. *)

val pop_kth : 'a t -> int -> (float * int * 'a) option
(** [pop_kth h k] removes and returns the entry with the [k]-th smallest
    sequence number among the ready set. [k] is clamped to the ready set,
    so [pop_kth h 0] is {!pop}. O(n) — meant for schedule exploration, not
    the production run loop. *)

val ready_view : 'a t -> (int * Label.t) array
(** [(seq, label)] for every entry sharing the minimum time, sorted by
    sequence number — index-aligned with the [k] argument of {!pop_kth}.
    Allocates; meant for schedule exploration, not the production loop. *)

val clear : 'a t -> unit
(** Drops every entry, keeping the capacity. *)
