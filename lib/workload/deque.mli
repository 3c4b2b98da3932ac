(** One-owner work-stealing deque over one-sided RMWs (the C11
    release/acquire idiom).

    Node 0 hosts [top], [bottom] and the task slots. The owner puts a
    task into a slot and fetch_adds [bottom] (the release); thieves read
    [top]/[bottom], CAS [top] forward to claim a task, and plain-get the
    claimed slot — ordered by the atomic read's S acquire on [bottom].
    The owner pushes exactly (n-1) * [steals_per_thief] tasks and each
    thief loops until its quota, so every run drains the deque.

    After its last push the owner reads [top] once (through the RMW
    path, so it serializes with the thieves' CASes). With [racy] set,
    every read of [top] becomes a plain get instead: the owner's final
    read is then concurrent with a winning CAS in every schedule, so
    the racy granule set is exactly {top} regardless of interleaving,
    while slots and [bottom] stay clean. *)

type params = {
  steals_per_thief : int;
  racy : bool;  (** thieves read [top] with a plain get *)
  think_mean : float;  (** owner think time between pushes *)
  seed : int;
}

val setup : Dsm_pgas.Env.t -> params -> unit -> (string * string) list
(** Spawns the owner and the thieves; returns a post-run check that
    every pushed task was stolen exactly once with the pushed value
    (label ["deque-steals"]). Raises [Invalid_argument] with fewer than
    2 processes. *)
