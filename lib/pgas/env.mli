(** The PGAS execution environment: a machine, optionally wrapped by the
    race detector.

    Every data movement in this library goes through {!put} / {!get}, so
    switching a whole application between "full performance" and
    "debugging with detection" (the deployment choice §5.1 discusses) is
    one constructor change: [Env.plain m] vs [Env.checked d]. *)

type t

val plain : Dsm_rdma.Machine.t -> t
(** Raw one-sided operations; no clocks, no signals. *)

val checked : Dsm_core.Detector.t -> t
(** All operations go through the detector (Algorithms 1–2). *)

val machine : t -> Dsm_rdma.Machine.t

val detector : t -> Dsm_core.Detector.t option

val put :
  t -> Dsm_rdma.Machine.proc ->
  src:Dsm_memory.Addr.region -> dst:Dsm_memory.Addr.region -> unit

val get :
  t -> Dsm_rdma.Machine.proc ->
  src:Dsm_memory.Addr.region -> dst:Dsm_memory.Addr.region -> unit

val put_batch :
  t -> Dsm_rdma.Machine.proc ->
  pairs:(Dsm_memory.Addr.region * Dsm_memory.Addr.region) list -> unit
(** Batched-coherence puts: see [Dsm_core.Detector.put_batch] (checked)
    and [Dsm_rdma.Machine.put_batch] (plain). Both take the same
    batches, one run as [Dsm_rdma.Machine.check_batch] defines it, and
    raise the same [Invalid_argument] on any other list. *)

val get_batch :
  t -> Dsm_rdma.Machine.proc ->
  pairs:(Dsm_memory.Addr.region * Dsm_memory.Addr.region) list -> unit
(** Batched-coherence gets over one contiguous source span, with
    {!put_batch}'s contract. *)

val fetch_add :
  t -> Dsm_rdma.Machine.proc -> target:Dsm_memory.Addr.global -> delta:int ->
  int
(** Atomic add: checked under a checked environment (see
    [Dsm_core.Detector.fetch_add]), raw NIC atomic otherwise. *)

val cas :
  t -> Dsm_rdma.Machine.proc -> target:Dsm_memory.Addr.global ->
  expected:int -> desired:int -> bool
(** Compare-and-swap; [true] iff the swap happened. Under a checked
    environment a failed swap is a read-only RMW (read-marked, not
    write-marked). *)

val atomic_read :
  t -> Dsm_rdma.Machine.proc -> target:Dsm_memory.Addr.global -> int
(** [fetch_add ~delta:0]: reads the word through the NIC's RMW path, so
    the read synchronizes with concurrent RMWs on the word (the acquire
    half of a release/acquire flag) instead of racing with them. *)

val accumulate :
  t -> Dsm_rdma.Machine.proc -> src:Dsm_memory.Addr.region ->
  dst:Dsm_memory.Addr.region -> aop:Dsm_rdma.Message.acc_op -> int array
(** Generalized one-sided accumulate over a whole public span; returns
    the span's prior contents (see [Dsm_rdma.Machine.accumulate]). *)

type lock_handle

val lock : t -> Dsm_rdma.Machine.proc -> Dsm_memory.Addr.region -> lock_handle
(** The NIC lock service; under a checked environment the lock is
    trace-recorded and, with [Config.lock_aware_clocks], carries
    causality (see [Dsm_core.Detector.lock]). *)

val unlock : t -> Dsm_rdma.Machine.proc -> lock_handle -> unit

val register : t -> Dsm_memory.Addr.region -> unit
(** Declare a shared datum (no-op on a plain environment). *)
