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

val check_n : int -> (unit, string) result
(** [check_n n] accepts a process count up to
    {!Dsm_memory.Node_memory.default_words}: {!create} gives each node one
    reduction slot per process in its public segment, so a larger [n]
    cannot fit a default-sized segment. The error names [-n] and the
    segment size. Callers check it before a machine allocates its
    segments. *)

val create : Env.t -> t
(** Installs the coordinator services on the machine's NICs and allocates
    the collective staging cells. At most one per machine. All [n] nodes
    are participants in every collective. *)

val barrier : t -> Dsm_rdma.Machine.proc -> unit
(** Blocks until every process has entered the same barrier generation.
    Every process must call barriers the same number of times (SPMD). *)

val reduce_gather :
  t -> Dsm_rdma.Machine.proc -> root:int -> value:int -> int option
(** Conventional sum reduction: every process pushes its contribution into
    the root's slot array, a barrier closes the gather phase, and the root
    folds locally. [Some sum] at the root, [None] elsewhere. The first
    call registers every slot with the detector, one variable per word;
    {!create} only allocates them. *)

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
