(** Trace events: the vocabulary shared by the online detector, the
    offline ground-truth checker, and the lockset baseline.

    An {!access} is one shared-memory access as §3.3 defines the term:
    performed by process [pid] on the shared datum [target], reading or
    writing. Sync events record the {e program-level} synchronization that
    creates happens-before edges beyond program order — explicit locks and
    barriers. The per-operation NIC locks of §3.2 are deliberately {e not}
    sync events: they serialize individual transfers without ordering the
    program, and treating them as synchronization would define every race
    away. *)

type kind =
  | Read
  | Write
  | Atomic_update
      (** a NIC-executed atomic read-modify-write (fetch-and-add,
          compare-and-swap). Atomic updates {e synchronize}: two atomic
          updates never race with each other, but an atomic update is a
          write as far as plain accesses are concerned. *)

type access = {
  id : int;  (** globally unique, dense from 0 in trace order *)
  time : float;
  pid : int;  (** the initiating process *)
  kind : kind;
  target : Dsm_memory.Addr.region;  (** the shared words touched *)
}

type sync =
  | Lock_acquire of { id : int; time : float; pid : int; lock : string }
  | Lock_release of { id : int; time : float; pid : int; lock : string }
  | Barrier_enter of { id : int; time : float; pid : int; generation : int }
      (** arrival at the barrier *)
  | Barrier_exit of { id : int; time : float; pid : int; generation : int }
      (** release, after every participant arrived; ordered after all
          [Barrier_enter] events of the same generation *)
  | Rmw_sync of {
      id : int;
      time : float;
      pid : int;
      target : Dsm_memory.Addr.region;
    }
      (** an atomic update's synchronization through the target NIC,
          which serializes RMWs: the issuer publishes its history on
          [target]'s words when it issues the RMW, and at the RMW's
          check acquires everything published there before (see
          [Recorder.rmw_sync]) *)

type t = Access of access | Sync of sync

val id : t -> int

val time : t -> float

val pid : t -> int

val access_opt : t -> access option

val conflict : access -> access -> bool
(** Two accesses conflict when they touch overlapping words, come from
    different processes, and at least one writes — the §3.3 precondition
    for a race. An {!Atomic_update} counts as a write against plain
    accesses but never conflicts with another atomic update. *)

val kind_name : kind -> string

val pp : Format.formatter -> t -> unit
