(** Race reports: §4.4's "signaled to the user … but must not abort".

    Every incomparability found by the detector becomes one {!race}
    record; execution continues. The report keeps them all, in signal
    order, for the experiment harness to score against ground truth. *)

type against = General_clock | Write_clock
(** Which per-datum clock the accessor's clock was incomparable with. *)

val against_tag : against -> string
(** ["general"] or ["write"]: how the race CSV, the probe's race signal
    and the race explanation spell {!against}. *)

type race = {
  event_id : int option;
      (** trace event id of the flagged access, when tracing is on *)
  time : float;
  accessor : int;  (** initiating process *)
  kind : Dsm_trace.Event.kind;  (** the flagged access's kind *)
  granule : Dsm_memory.Addr.region;  (** the shared datum (or block) *)
  accessor_clock : Dsm_clocks.Vector_clock.t;
  datum_clock : Dsm_clocks.Vector_clock.t;
  against : against;
  prior : Provenance.entry option;
      (** The race's {e other} endpoint, {!Provenance.find_prior}'s
          answer from the granule's provenance ring: the most recent
          conflicting access by another process. [None] when provenance
          is disabled ([provenance_depth = 0]) or no conflicting access
          is retained. *)
}

type t

val create : ?verbose:bool -> unit -> t
(** With [verbose = true] every signal is also printed on stderr through
    [Logs] (the paper's "message on the standard output"). Default
    [false]: collect silently. *)

val signal : t -> race -> unit

val count : t -> int

val races : t -> race list
(** In signal order. *)

type group = {
  g_granule : Dsm_memory.Addr.region;
  g_pids : int list;  (** distinct accessors involved, ascending *)
  g_count : int;  (** signals collapsed into this group *)
  g_first_time : float;
  g_kinds : Dsm_trace.Event.kind list;  (** distinct kinds, first-seen order *)
}

val grouped : t -> group list
(** Signals collapsed per shared datum — how a debugging tool would
    present them ("variable [a] is raced by P0 and P1, 17 times, first at
    t=18.65"). Ordered by first signal time. *)

val pp_grouped : Format.formatter -> t -> unit

val to_csv : t -> string
(** One row per signal:
    [time,accessor,kind,node,offset,len,against,accessor_clock,datum_clock,event_id]
    — the machine-readable companion of [Dsm_trace.Export]. [event_id]
    is empty when tracing was off, otherwise it joins the row to the
    recorded trace event. *)

val fingerprint : t -> string
(** Hex digest of {!to_csv}: two runs produced the same signals (same
    order, times, granules and clocks) iff their fingerprints match.
    The schedule explorer compares these to check per-schedule detector
    determinism and to validate replays. *)

val same_races : t -> t -> bool
(** Whether both reports hold the same signals in the same order, equal
    on every field {!to_csv} renders: times exactly, clocks by value.
    Equal reports have equal {!fingerprint}s, with nothing rounded or
    hashed; the explorer's determinism replay compares reports this
    way. *)

val pp_race : Format.formatter -> race -> unit

val pp_summary : Format.formatter -> t -> unit
