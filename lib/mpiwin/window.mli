(** MPI-2 style one-sided communication windows (the paper's §2 context).

    A window exposes [len_per_rank] public words on every process. RMA
    operations ({!put}, {!get}, {!accumulate}) are legal only inside an
    {e access epoch}:

    - {e active target}: between two collective {!fence}s — the usual
      BSP pattern; the fence is a barrier and (under a checked
      environment) a clock synchronization point; or
    - {e passive target}: between {!lock} and {!unlock} of one target
      rank, which wrap the NIC lock of that rank's exposure mutex.

    The window carries a MARMOT-style {e usage checker} (Krammer &
    Resch 2006, cited by the paper): it validates how the
    synchronization API is used — operations outside any epoch, fencing
    while holding a passive lock, double locks, unlocks without locks —
    and records {!usage_violations} without aborting.

    Usage checking and the paper's clock-based race detection are
    complementary, which is exactly the related-work positioning:
    MARMOT is silent about a data race {e within} a legal epoch, while
    the clock detector is silent about an op {e outside} an epoch that
    happens to race with nothing. Experiment E15 shows both. *)

type t

val create :
  Dsm_pgas.Env.t ->
  collectives:Dsm_pgas.Collectives.t ->
  name:string ->
  len_per_rank:int ->
  t
(** Collective creation (call once from setup code, before spawning).
    Allocates and registers the exposure regions and per-rank mutexes. *)

(** {1 Synchronization} *)

val fence : t -> Dsm_rdma.Machine.proc -> unit
(** Collective: closes the current active epoch (if any) and opens the
    next. All processes must call it the same number of times. The first
    fence opens the first epoch. *)

val lock : t -> Dsm_rdma.Machine.proc -> rank:int -> unit
(** Opens a passive-target epoch towards [rank]; blocks while another
    process holds it. *)

val unlock : t -> Dsm_rdma.Machine.proc -> rank:int -> unit
(** Closes the passive epoch. *)

(** {1 RMA operations} *)

val put : t -> Dsm_rdma.Machine.proc -> rank:int -> offset:int -> int -> unit

val get : t -> Dsm_rdma.Machine.proc -> rank:int -> offset:int -> int

val accumulate :
  t -> Dsm_rdma.Machine.proc -> rank:int -> offset:int -> delta:int -> unit
(** Atomic add into the target word (MPI_Accumulate with MPI_SUM). *)

(** {1 The MARMOT-style usage checker} *)

type usage_violation = {
  time : float;
  pid : int;
  what : string;  (** e.g. ["put outside any access epoch"] *)
}

val usage_violations : t -> usage_violation list
(** In detection order; never aborts (like the race signals). *)

val pp_usage_violation : Format.formatter -> usage_violation -> unit
