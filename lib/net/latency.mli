(** Message latency models.

    The paper targets low-latency RDMA fabrics (InfiniBand, Myrinet). We do
    not reproduce a particular NIC; we provide the standard modelling
    family, from a constant wire delay up to a LogGP-style model
    (latency + per-message overhead + per-word gap). The race-detection
    verdicts must be independent of the model chosen — experiment E2's
    ablation checks exactly that — because detection depends on causality,
    not on absolute speed.

    All times are in microseconds, sizes in 8-byte words, matching the
    InfiniBand-era numbers quoted in the defaults. *)

type t =
  | Constant of float
      (** every message takes the same time *)
  | Linear of { base : float; per_word : float }
      (** [base + words * per_word] *)
  | Logp of { latency : float; overhead : float; gap_per_word : float }
      (** LogGP without the P: wire latency [L], sender+receiver CPU
          overhead [o] (charged once each), and per-word gap [G]. *)
  | Jittered of { model : t; mean_jitter : float }
      (** underlying model plus an exponentially distributed jitter —
          makes interleavings seed-dependent, which the race experiments
          use to explore schedules. *)

val infiniband_like : t
(** LogGP with L=1.5 us, o=0.4 us, G=0.0025 us/word (~3.2 GB/s). *)

val ethernet_like : t
(** LogGP with L=25 us, o=3 us, G=0.08 us/word — a commodity baseline. *)

val delay : t -> Dsm_sim.Prng.t -> words:int -> float
(** [delay model rng ~words] draws the end-to-end delay for one message of
    [words] payload words. Deterministic models ignore [rng]. Raises
    [Invalid_argument] when [words < 0]. The result is always > 0. *)

val to_string : t -> string
(** Compact round-trippable form, e.g. ["logp:1.5:0.4:0.0025"] or
    ["jitter:3:constant:1"] — the grammar {!of_string} accepts. *)

val of_string : string -> (t, string) result
(** Parse ["infiniband"] (alias ["ib"]), ["ethernet"], ["constant:C"],
    ["linear:BASE:PER_WORD"], ["logp:L:O:G"] or ["jitter:MEAN:MODEL"]
    (recursively). All numbers are non-negative microseconds (per word
    for gaps). *)
