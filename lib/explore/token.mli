(** The run spec and its replay-token codec.

    A run is a pure function of a {!spec} and a schedule-decision list.
    {!spec} is the one description of an explorable run — the explorer
    ({!Explore.spec} is this type), {!Scenario.prepare}, the CLI and the
    codec all read it — and {!default_spec} is its one default.

    A token carries a spec plus the (minimized) decision prefix. Feeding
    it to [dsmcheck explore --replay] (or {!Explore.replay}) re-executes
    the violating run deterministically, bit-identical fingerprint
    included.

    Wire form (the [f] field uses {!Dsm_net.Fault.of_string}'s grammar,
    the optional [l] field {!Dsm_net.Latency.of_string}'s; the optional
    [m] field (nic_atomic|relaxed|eventual|seq_consistent) carries the
    memory-model backend; [l] and [m] are omitted at their defaults, so
    tokens minted before either knob existed print and replay unchanged):

    {v dsm1|s=getput|n=2|seed=7|l=constant:1|f=drop=0.2|r=1|b=1|me=200000|d=1,0,2 v}

    Tokens minted while the clock wire encoding was selectable may carry
    a [w=dense|sparse|delta] field. It was accounting-only, so it still
    parses and is ignored; it is never printed. *)

type spec = {
  scenario : string;  (** {!Scenario} spec, e.g. ["getput"] *)
  n : int;  (** process count, at least 1 *)
  seed : int;  (** engine seed *)
  latency : Dsm_net.Latency.t;
      (** fabric latency model; [Constant] makes deliveries tie, turning
          the scheduling tree from near-linear into genuinely branching —
          the regime the DPOR layer is for *)
  model : Dsm_rdma.Model.t;
      (** memory-model backend (default [Nic_atomic], the paper's).
          Semantic: it changes the machine's protocol hooks and the
          detector's happens-before edges, hence schedules, fingerprints
          and verdicts *)
  faults : Dsm_net.Fault.t;
  reliable : bool;  (** reliable transport enabled *)
  bug : bool;  (** planted protocol-bug family *)
  max_events : int;  (** per-run event budget, at least 1 *)
}

val default_spec : spec
(** ["getput"], 2 processes, seed 1, InfiniBand-like latency, the
    [nic_atomic] model, no faults, 200k events. *)

type t = { spec : spec; decisions : int list }
(** [decisions] is the schedule prefix; beyond it, default order. *)

val trim_trailing_zeros : int list -> int list
(** Trailing zeros are the default schedule order, so dropping them
    replays identically — done before embedding decisions in a token. *)

val make : spec -> int list -> t
(** The token for a run: the spec plus its trimmed decisions. *)

val validate : t -> (t, string) result
(** The rules every run spec obeys: [n >= 1], [max_events >= 1], every
    decision [>= 0], and for a [workload:] or [prog:] scenario, which
    builds the collectives, {!Dsm_pgas.Collectives.check_n}.
    {!of_string} applies them, and so does the CLI to the spec its flags
    describe. *)

val to_string : t -> string

val of_string : string -> (t, string) result
(** Inverse of {!to_string}: tolerant of field order, explicit about
    what is malformed — an unknown or repeated field, a bad value, or a
    spec {!validate} rejects. Never raises. *)
