(** Per-run recording of scheduler choice points for the DPOR layer.

    While installed on an arena ([Explore.set_ready_log]), the log
    captures at every choice point the ready set's [(seq, label)] view —
    sorted by sequence number, index-aligned with the chooser's pick —
    and a sample of the machine's chained-lock-grant counter
    ([Dsm_rdma.Machine.lock_grants_chained]). After the run, {!view} and
    {!chain_delta} let {!Dpor} reconstruct which event fired at each
    point, what it could have commuted with, and whether it ran
    synchronous work (queued lock grants) its label cannot express. *)

type t

val create : unit -> t

val reset : t -> sample:(unit -> int) -> unit
(** Rewind for the next run. [sample] reads the run's chained-grant
    counter; it is called once on entry to every choice point and once
    by {!finish}. *)

val observe : t -> (int * Dsm_sim.Label.t) array -> unit
(** The hook to install with [Engine.set_choice_view]; records the view
    by reference (the engine allocates a fresh array per point). *)

val finish : t -> unit
(** Record the end-of-run counter sample; must be called after the run
    so {!chain_delta} is defined for the last point. *)

val view : t -> int -> (int * Dsm_sim.Label.t) array
(** The ready set at point [i]: [(seq, label)] sorted by seq, index [k]
    being the event the chooser's pick [k] would fire. *)

val chain_delta : t -> int -> int
(** Chained lock grants attributed to the event chosen at point [i]
    (non-negative; conservatively includes grants by non-choice events
    up to the next point). Positive means that event ran another
    origin's continuation synchronously — the DPOR layer must treat it
    as dependent with everything. *)
