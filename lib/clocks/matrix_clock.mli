(** Matrix clocks — the "clock matrix V_{Pi}" of the paper's §4.2.

    Process [i]'s matrix row [j] is [i]'s latest knowledge of process [j]'s
    vector clock; the principal row [i] is [i]'s own vector clock. Matrix
    clocks additionally capture "what [j] knows about [k]" — more than
    Lemma 1 needs, at an [n^2] storage cost. Experiment E6 uses this module
    to quantify why the detector ships vectors, not matrices. *)

type t

val create : n:int -> me:int -> t
(** [create ~n ~me] is the zero matrix for process [me] of [n]. *)

val dim : t -> int

val owner : t -> int
(** The process this matrix belongs to. *)

val tick : t -> unit
(** Local-event rule: increment the diagonal entry [me,me]. *)

val entry : t -> int -> int -> int

val observe : t -> t -> unit
(** [observe m remote] applies the receive rule: every row of [m] becomes
    the componentwise max with the corresponding row of [remote], and the
    principal row additionally absorbs [remote]'s principal row.
    Raises [Invalid_argument] on dimension mismatch. *)
