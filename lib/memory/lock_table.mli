(** NIC-provided range locks over one process's public memory (§3.1).

    "These locks guarantee exclusive access on a memory area: when a lock
    is taken by a process, other processes must wait for the release of
    this lock before they can access the data." Two lock requests conflict
    when their word ranges overlap. Grants are callback-style because the
    requester is the simulated NIC agent, not a coroutine: [acquire]
    either grants synchronously or queues the continuation, and [release]
    hands the lock to eligible waiters — which is exactly how Figure 3's
    delayed [put] arises. A running process that locks its own node asks
    {!try_acquire} first, and hands over a continuation only when the
    range is contended. *)

type t

type lock_id
(** Token identifying one granted lock; needed to release it. *)

val create : unit -> t

val acquire : t -> offset:int -> len:int -> (lock_id -> unit) -> unit
(** [acquire t ~offset ~len k] requests exclusive access to the word range
    [\[offset, offset+len)]. [k] is invoked with the lock token as soon as
    no held lock overlaps — possibly immediately, possibly from a later
    {!release}. A request also waits behind {e queued} requests for
    overlapping ranges (fairness), but is never delayed by waiters on
    disjoint ranges. Raises [Invalid_argument] on a degenerate range. *)

val try_acquire : t -> offset:int -> len:int -> lock_id
(** [try_acquire t ~offset ~len] grants exactly when {!acquire} would
    call back at once, with the same id and leaving the table in the
    same state; otherwise it returns {!refused} and changes nothing —
    no waiter is queued, no id is spent. A degenerate range is refused
    (where {!acquire} raises). The uncontended path of a lock taken by
    a running process: it needs no continuation to resume. *)

val refused : lock_id
(** What {!try_acquire} returns when it grants nothing; never the id of
    a granted lock. Compare with [==]. *)

val release : t -> lock_id -> unit
(** Releases a held lock and grants, in queue order, every waiter that
    no longer conflicts with a held lock: no head-of-line blocking.
    Raises [Failure] if the token is unknown (double release). *)

val chained_grants : t -> int
(** Monotone count of grants issued from inside {!release} since creation
    (or {!reset}): each such grant ran another requester's continuation
    synchronously within the releasing event. The schedule explorer
    samples this to spot events whose true footprint exceeds their
    declared label — a release that wakes a queued waiter must be treated
    as dependent with everything. *)

val held_count : t -> int

val queued_count : t -> int
(** Requests currently waiting — non-zero here at quiescence is how tests
    detect a lock leak or deadlock. *)

val reset : t -> unit
(** [reset t] forgets every held lock and queued waiter and restarts
    token numbering — the [create] state, reached in place. Only sound
    when the owning simulation has itself been reset: queued grant
    continuations are dropped, never called. *)
