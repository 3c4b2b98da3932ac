(** One granule's access provenance: a bounded ring (depth =
    [Config.provenance_depth]) of the most recent checked accesses —
    last writer plus recent readers — so a race signal can name
    {e both} endpoints.

    The ring lives in the granule's {!Clock_store.entry}, next to its
    [V]/[W]/[S] clocks; {!Clock_store.storage_words} does not count it.
    Observation-only detector state: consulted and updated on the
    detection path, never feeding back into clocks, verdicts or
    scheduling — attaching it cannot change a run's fingerprint. *)

open Dsm_clocks

type entry = {
  pid : int;
  kind : Dsm_trace.Event.kind;
  time : float;  (** simulated µs at check time *)
  op : int;  (** detector checked-op ordinal *)
  event_id : int;  (** trace event id, [-1] when tracing is off *)
  clock : Vector_clock.t;  (** accessor clock snapshot at check time *)
}

type ring

val empty : ring
(** The history of a granule nothing was noted into. Shared and
    allocation-free: a store creates every entry with it. *)

val note :
  depth:int ->
  ring ->
  pid:int ->
  kind:Dsm_trace.Event.kind ->
  time:float ->
  op:int ->
  event_id:int ->
  Vector_clock.t ->
  ring
(** [note ~depth ring ~pid ~kind ~time ~op ~event_id clock] records an
    access by [pid] whose clock is [clock] (read, not kept), evicting
    the oldest once the ring is full, and returns the ring to keep. The
    first note into {!empty} allocates [depth] slots; each of the first
    [depth] notes allocates one slot and a copy of [clock]; every later
    note overwrites the oldest slot in place and allocates nothing.
    [depth <= 0] returns the ring unchanged. *)

val history : ring -> entry list
(** Retained accesses, newest first (at most the ring's depth), as
    fresh copies: later notes do not change them. *)

val find_prior :
  ring -> pid:int -> write:bool -> clock:Vector_clock.t -> entry option
(** The race's other endpoint: the most recent retained access by a
    different process that conflicts with the flagged access ([write]
    true unless both are plain reads) and whose clock is concurrent
    with [clock]. Falls back to the most recent conflicting access when
    no retained entry is concurrent (the true endpoint may have aged
    out of the bounded ring). The answer is a fresh copy. *)
