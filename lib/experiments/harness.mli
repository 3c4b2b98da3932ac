(** Common plumbing for the experiment sections (E1–E17).

    Every experiment is a named procedure that prints its own tables to a
    formatter; [Registry] lists them all, and the benchmark executable
    and the CLI both dispatch through it. All experiments are
    deterministic: they measure {e simulated} time and traffic, which are
    pure functions of the seed. *)

type experiment = {
  id : string;  (** "E1" .. "E10" *)
  paper_artifact : string;  (** which figure/claim it reproduces *)
  run : Format.formatter -> unit;
}

val section : Format.formatter -> experiment -> unit
(** Banner + run for one experiment. *)

(** {1 Building blocks used by the experiment modules} *)

val fresh_machine :
  ?n:int ->
  ?latency:Dsm_net.Latency.t ->
  ?model:Dsm_rdma.Model.t ->
  unit ->
  Dsm_rdma.Machine.t
(** A machine on a fresh engine; default n=3, constant 1 us latency,
    the default ([Nic_atomic]) memory model. *)

val run_to_completion : Dsm_rdma.Machine.t -> unit
(** Runs the simulation; raises [Failure] if it blocks or is cut off. *)

val collect_arrows :
  Dsm_obs.Probe.t -> unit -> Dsm_trace.Spacetime.arrow list
(** [let arrows = collect_arrows bus in ... run ...; arrows ()] attaches
    a probe sink to [bus] that records every delivered message as a
    space-time arrow, in delivery order, paired with its send by
    {!Dsm_obs.Msg.pending}. The figures and the explorer's
    replay diagram both draw their arrows with it. *)

val private_with :
  Dsm_rdma.Machine.t -> pid:int -> int array -> Dsm_memory.Addr.region
(** Fresh private buffer holding the given words. *)

val fmt_ratio : float -> float -> string
(** ["1.46x"]-style ratio rendering. *)

val fmt_us : float -> string
