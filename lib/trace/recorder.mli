(** Online trace construction.

    The recorder is fed by the instrumented operations while the
    simulation runs: one {!access} per put/get, plus program-level sync
    events. It maintains the last-writer shadow map that turns write→read
    value flow into reads-from edges, so the finished {!Trace.t} carries
    the exact happens-before relation with no further help.

    Events must be recorded in non-decreasing simulated time (true by
    construction when fed from a single discrete-event simulation). *)

type reads_from =
  | All_writers
      (** a read is ordered after {e every} earlier write to each word it
          covers — the causality the paper's clocks compute: a datum's
          write clock [W] merges all writers, and a reader absorbs [W] *)
  | Last_writer
      (** classic happens-before: a read is ordered only after the write
          whose value it actually returned. Strictly weaker; the gap is
          measured in experiment E8 *)

type t

val create : ?reads_from:reads_from -> n:int -> unit -> t
(** Default [reads_from] is {!All_writers}, matching the algorithm under
    test. *)

val access :
  t ->
  time:float ->
  pid:int ->
  kind:Event.kind ->
  target:Dsm_memory.Addr.region ->
  int
(** Records one access and returns its event id; its [label] is empty. A [Read] or
    [Atomic_update] picks up reads-from edges to the writers of every
    word it covers and to every {!rmw_sync} recorded on those words; a
    [Write] or [Atomic_update] becomes a writer of its words. *)

val rmw_sync :
  t ->
  time:float ->
  pid:int ->
  target:Dsm_memory.Addr.region ->
  acquire:bool ->
  int
(** An atomic update's synchronization through the target NIC, which
    serializes RMWs (the paper's [Nic_atomic] model; record nothing
    under a model whose RMWs do not synchronize). Mirrors the detector's
    S clock: with [~acquire:false] it is the release the issuer publishes
    on [target]'s words when it issues the RMW; with [~acquire:true] it
    is the RMW's check, which first acquires every [rmw_sync] recorded on
    those words before and then publishes the result. Record the latter
    immediately before the RMW's [Atomic_update] access, so the access
    is ordered after what it acquired — the acquire is synchronization
    for the RMW itself, unlike a reads-from edge. Later reads and atomic
    updates of the words observe every [rmw_sync] on them. *)

val lock_acquire : t -> time:float -> pid:int -> lock:string -> int
(** Ordered after the previous {!lock_release} of the same lock name. *)

val lock_release : t -> time:float -> pid:int -> lock:string -> int

val barrier_enter : t -> time:float -> pid:int -> generation:int -> int

val barrier_exit : t -> time:float -> pid:int -> generation:int -> int
(** Ordered after every {!barrier_enter} of the same generation recorded
    so far — which is all of them, if called at barrier release time. *)

val finish : t -> Trace.t
(** Freezes into a queryable trace. The recorder stays usable; a later
    [finish] returns a longer trace. *)
