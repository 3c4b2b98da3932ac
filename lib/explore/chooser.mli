(** Decision policies for the engine's scheduler choice points.

    A chooser is handed to [Dsm_sim.Engine.set_chooser]; whenever [k >= 2]
    events are ready at the same simulated instant, it picks which one
    fires. Every decision taken is recorded, so a randomized walk can be
    replayed exactly by re-running the same decision list in scripted
    mode — the foundation of the replay tokens. *)

type t

val scripted : int list -> t
(** Follow a recorded decision list. Decisions past the end of the list
    pick 0 (the default (time, seq) schedule order); out-of-range
    decisions are clamped. This makes every decision prefix a valid
    script, which prefix minimization relies on. *)

val fn : t -> int -> int
(** The function to install with [Engine.set_chooser]. *)

(** {2 Reuse}

    A chooser records into flat int buffers that are reused across runs
    (grown geometrically, never shrunk), so the explorer's walk loop
    allocates nothing per decision. The [reset_*] functions rewind the
    recording and swap the policy in place. *)

val reset_random : t -> Dsm_sim.Prng.t -> unit

val reset_scripted : t -> int list -> unit

val reset_replay_of : t -> src:t -> unit
(** Replay exactly the decisions currently recorded in [src], sharing
    [src]'s buffer without copying. Valid until [src] is next reset or
    records further decisions; the explorer's determinism check replays
    immediately, within the same run slot. Raises [Invalid_argument] when
    [src] is the chooser itself. *)

val decisions : t -> int list
(** The choices actually taken so far, in order (after clamping).
    Materializes a fresh list — meant for surfaced runs, not the hot
    loop; use {!chosen_at} to read without allocating. *)

val trace : t -> (int * int) list
(** [(ready, chosen)] per choice point, in order — the exhaustive
    explorer reads the ready counts to enumerate the untaken branches.
    Fresh list; see {!ready_at} / {!chosen_at} for allocation-free
    access. *)

val choice_points : t -> int

val ready_at : t -> int -> int
(** Ready count at choice point [i]. Raises [Invalid_argument] out of
    range. *)

val chosen_at : t -> int -> int
(** Decision taken at choice point [i] (after clamping). *)
