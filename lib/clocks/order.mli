(** Partial-order verdicts for logical clocks.

    The race-detection criterion of the paper (Lemma 1) is phrased in terms
    of the causal partial order on events: two events race when their clocks
    are {e incomparable}. This module fixes the vocabulary shared by all
    clock implementations. *)

type t =
  | Equal       (** identical clocks: same causal history *)
  | Before      (** left happened-before right *)
  | After       (** right happened-before left *)
  | Concurrent  (** incomparable: no causal order — the race case *)

val concurrent : t -> bool
(** [concurrent o] is [true] iff [o] is {!Concurrent}. *)

val flip : t -> t
(** [flip o] is the verdict with the operands swapped:
    [Before] becomes [After] and conversely; [Equal] and [Concurrent]
    are symmetric and unchanged. *)
