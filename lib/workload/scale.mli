(** Neighbour-push workload for scaling race detection past the paper's
    ~10 processes (epoch clocks and batched coherence).

    Every process repeatedly writes a chunk of contiguous single-word
    slots into its ring successor's public buffer — the shape batched
    coherence coalesces into one fabric message per round. In [racy]
    mode the ring predecessor writes the same buffer too, making every
    slot a schedule-independent write-write race (the workload is
    put-only and barrier-free, so processes stay mutually concurrent
    forever); with [racy = false] each buffer has a single writer and
    the run is race-free, isolating detector overhead for the scaling
    benchmarks. *)

type params = {
  rounds : int;  (** pushes each process performs per target *)
  chunk : int;  (** slots per buffer = puts coalesced per batch *)
  racy : bool;
      (** both ring neighbours write each buffer (needs n >= 3) *)
  batched : bool;  (** coalesce each round's puts into one message *)
  think_mean : float;  (** mean think time between rounds; 0 = none *)
  seed : int;
}

val default : params
(** 2 rounds x 4-slot chunks, race-free, batched, no think time, seed 1. *)

val setup : Dsm_pgas.Env.t -> params -> unit
(** Allocates one buffer per node and spawns one program per node; the
    caller then runs the machine. Raises [Invalid_argument] on
    degenerate parameters or [racy] with fewer than 3 processes. *)
