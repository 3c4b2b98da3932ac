(** A bounded per-run flight recorder: an ordinary probe sink that
    retains the last K events in a fixed-capacity ring.

    Appends are O(1) and allocation-free (one array store + counter
    bump); once full, the oldest event is overwritten. The sink is
    arena-reset-aware: an [explore.run_begin] event resets the window in
    place, so across the explorer's reused-arena runs the ring always
    holds a suffix of the {e current} run only. The run-boundary
    markers are consumed as control events rather than recorded — they
    carry the arena-global run counter, so keeping them would make two
    otherwise identical runs leave different windows.

    Like every sink, the recorder is a read-only observer — attaching it
    never changes a run's schedule, races or fingerprint (QCheck-tested
    in [test_explain.ml]). *)

type t

val create : ?capacity:int -> unit -> t
(** A detached recorder. [capacity] defaults to 256 and must be ≥ 1.
    The ring never records [engine.step] events: that per-event
    firehose has no explanatory value, and dropping it lets the window
    cover meaningful traffic and keeps the attach cost inside the ≤ 3%
    probe-overhead gate. *)

val attach : ?capacity:int -> Probe.t -> t
(** [create] + [Probe.attach] in one step. *)

val sink : t -> Probe.event -> unit
(** The raw sink, for attaching by hand (e.g. next to a timeline). *)

val record : t -> Probe.event -> unit
(** Append one event ([engine.step] excepted), without the [sink]'s
    run-begin reset handling. *)

val length : t -> int
(** Events currently retained: [min total capacity]. *)

val total : t -> int
(** Events recorded ([engine.step] excepted) since the last reset. *)

val dropped : t -> int
(** Accepted events that have already been overwritten. *)

val to_list : t -> (int * Probe.event) list
(** [(seq, event)] pairs, oldest first. *)

val events : t -> Probe.event list
(** The retained window, oldest first. *)
