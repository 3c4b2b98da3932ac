(** Lamport scalar clocks (Lamport 1978, the paper's reference [12]).

    A Lamport clock is a single counter per process: it is consistent with
    causality ([e1 -> e2] implies [C(e1) < C(e2)]) but {e not} strongly
    consistent — [C(e1) < C(e2)] does not imply causal order. The paper's
    detection algorithm therefore needs vector clocks (Lemma 1); Lamport
    clocks are provided for the E6 ablation, which demonstrates the races a
    scalar clock misses. *)

type t
(** A mutable scalar clock. *)

val create : unit -> t
(** [create ()] is a clock at logical time 0. *)

val copy : t -> t

val value : t -> int
(** Current logical time. *)

val tick : t -> int
(** [tick c] increments the clock for a local event and returns the new
    value. *)

val observe : t -> int -> int
(** [observe c remote] merges a received timestamp: the clock becomes
    [max (value c) remote + 1] (receive rule) and the new value is
    returned. *)

val pp : Format.formatter -> t -> unit
