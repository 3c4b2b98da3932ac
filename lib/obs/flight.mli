(** A bounded per-run flight recorder: an ordinary probe sink that
    retains the last 256 events in a fixed-capacity ring, each beside
    the time it happened at ({!Probe.now} when it was delivered).

    Appends are O(1) and allocation-free (an event store, a time store
    into a float array and a counter bump); once full, the oldest event
    is overwritten. The sink is
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

val attach : Probe.t -> t
(** A recorder of the last 256 events, subscribed to every class but
    {!Probe.apply}. Every event of those classes but the run-boundary
    markers takes a slot. *)

val events : t -> (float * Probe.event) list
(** The retained window, oldest first: each event with its simulated
    time. *)
