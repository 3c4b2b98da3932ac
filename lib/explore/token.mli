(** Replay tokens: a violated invariant compressed into one line.

    A token carries everything a run is a pure function of — scenario,
    process count, engine seed, fault plan, transport flags, event
    budget, and the (minimized) schedule-decision prefix. Feeding it to
    [dsmcheck explore --replay] (or {!Explore.replay}) re-executes the
    violating run deterministically, bit-identical fingerprint included.

    Wire form (the [f] field uses {!Dsm_net.Fault.of_string}'s grammar,
    the optional [l] field {!Dsm_net.Latency.of_string}'s; [l] is
    omitted — printing and parsing — at the default model, so tokens
    minted before the latency knob existed replay unchanged; the
    optional [m] field (nic_atomic|relaxed|eventual|seq_consistent)
    carries the memory-model backend, likewise omitted at its default):

    {v dsm1|s=getput|n=2|seed=7|l=constant:1|f=drop=0.2|r=1|b=1|me=200000|d=1,0,2 v}

    Tokens minted while the clock wire encoding was selectable may carry
    a [w=dense|sparse|delta] field. It was accounting-only, so it still
    parses and is ignored; it is never printed. *)

type t = {
  scenario : string;  (** {!Scenario} spec, e.g. ["getput"] *)
  n : int;
  seed : int;
  latency : Dsm_net.Latency.t;  (** fabric latency model *)
  model : Dsm_rdma.Model.t;
      (** memory-model backend the run executed under; semantic (it
          changes schedules and verdicts), carried as the [m=] field
          and omitted at the default ([nic_atomic]) so pre-model tokens
          parse unchanged *)
  faults : Dsm_net.Fault.t;
  reliable : bool;  (** reliable transport enabled *)
  bug : bool;  (** planted [Skip_get_dst_lock] protocol bug *)
  max_events : int;
  decisions : int list;  (** schedule prefix; beyond it, default order *)
}

val trim_trailing_zeros : int list -> int list
(** Trailing zeros are the default schedule order, so dropping them
    replays identically — done before embedding decisions in a token. *)

val to_string : t -> string

val of_string : string -> (t, string) result
(** Inverse of {!to_string}; tolerant of field order, explicit about
    what is malformed. *)

val pp : Format.formatter -> t -> unit
