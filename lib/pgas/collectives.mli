(** Collective operations over the PGAS environment.

    {!barrier} is a centralized coordinator on node 0: each participant
    sends an arrival message, and the coordinator broadcasts the release
    once everyone arrived (2n messages, all priced by the fabric). Under a
    checked environment the barrier also merges the process clocks
    ({!Dsm_core.Detector.barrier_sync}) and records trace sync events, so
    post-barrier accesses are causally ordered after pre-barrier ones.

    {!reduce_gather} is the conventional collective reduction — everyone
    participates. {!reduce_onesided_sum} is the paper's §5.2 proposal: a
    single process reduces data held by all others {e with no
    participation on their side}, using only one-sided gets. Experiment
    E10 compares them. *)

type t

val create : Env.t -> t
(** Installs the coordinator services on the machine's NICs and allocates
    the collective staging cells. At most one per machine. All [n] nodes
    are participants in every collective. *)

val env : t -> Env.t

val barrier : t -> Dsm_rdma.Machine.proc -> unit
(** Blocks until every process has entered the same barrier generation.
    Every process must call barriers the same number of times (SPMD). *)

val generation : t -> pid:int -> int
(** Barrier generations completed by [pid] so far. *)

val broadcast : t -> Dsm_rdma.Machine.proc -> root:int -> int option -> int
(** [broadcast c p ~root v] returns the root's value on every process.
    The root passes [Some value]; the others pass [None]. Implemented as
    a root publish + barrier + one-sided gets + barrier.
    Raises [Invalid_argument] if the root does not supply a value or a
    non-root does. *)

val reduce_gather :
  t -> Dsm_rdma.Machine.proc -> root:int -> value:int -> int option
(** Conventional sum reduction: every process pushes its contribution into
    the root's slot array, a barrier closes the gather phase, and the root
    folds locally. [Some sum] at the root, [None] elsewhere. *)

val reduce_onesided :
  t -> Dsm_rdma.Machine.proc -> ?aop:Dsm_rdma.Message.acc_op ->
  Shared_array.t -> int
(** §5.2: the calling process alone folds a distributed array with
    one-sided gets — "a reduction without any participation of the other
    processes" — generalized to any accumulate operator (default
    {!Dsm_rdma.Message.Add}). Each owner's contiguous span is staged
    with one batched get ({!Env.get_batch}), then folded locally. Any
    process may call it, at any time; whether that is safe is exactly
    what the race detector decides (see the tests: unsynchronized calls
    are flagged, post-barrier calls are clean). *)

val reduce_onesided_sum :
  t -> Dsm_rdma.Machine.proc -> Shared_array.t -> int
(** [reduce_onesided ~aop:Add]. *)

val allreduce : t -> Dsm_rdma.Machine.proc -> value:int -> int
(** Sum reduction whose result reaches every process: a gather to node 0
    followed by a broadcast. *)

val scatter :
  t -> Dsm_rdma.Machine.proc -> root:int -> int array option -> int
(** [scatter c p ~root v] distributes one value per process from the
    root's array ([Some values] of length [n] at the root, [None]
    elsewhere); returns this process's element. One-sided: the root
    pushes each slot; a barrier closes the phase.
    Raises [Invalid_argument] on a wrong-length array or a non-root
    supplying values. *)

val gather :
  t -> Dsm_rdma.Machine.proc -> root:int -> value:int -> int array option
(** Inverse of {!scatter}: everyone pushes its value to the root's slot
    array; [Some values] at the root after a closing barrier. *)
