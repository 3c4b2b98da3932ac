(** Differential race detection across memory-model backends.

    Explores schedules once and replays each explored schedule — the
    exact decision list — under two {!Dsm_rdma.Model.t} backends,
    comparing the canonical verdicts. A schedule whose raced-granule
    set (or violated-invariant set) differs between the backends is a
    {e model-dependent} finding: the program is race-free under one
    set of ordering guarantees and racy under the other, and the gap
    between the two backends' hook records names exactly which
    synchronization edge the weaker model is missing.

    Both replays follow the same decision list, but decisions index
    ready sets, and the backends can diverge in which events become
    ready (non-atomic puts add scheduling points, get-delays-put
    removes blocking) — so the comparison is over the schedule
    {e prefix}, resolved deterministically per model. That is the right
    notion for differential testing: each side is a real, replayable
    run of its model, and the minted tokens reproduce both verdicts
    bit-identically. *)

type finding = {
  walk : int;  (** walk index the schedule came from *)
  decisions : int list;  (** the shared schedule prefix *)
  token_a : Token.t;  (** replays the run under the first backend *)
  token_b : Token.t;  (** replays the run under the second backend *)
  races_a : int;
  races_b : int;
  canon_a : string;
  canon_b : string;
  race_dependent : bool;
      (** one backend signalled at least one race and the other none —
          the headline differential witness *)
  missing_edges : string list;
      (** human-readable descriptions of the hook gaps between the two
          backends: the sync edges present in the stronger model and
          absent in the weaker one (empty iff the hook records agree) *)
}

type outcome = {
  schedules : int;  (** schedules explored and replayed under both *)
  differing : int;  (** schedules whose canonical verdicts differ *)
  race_dependent : int;  (** differing schedules that flip a race verdict *)
  first : finding option;  (** first race-dependent finding, else first
                               differing one *)
}

val run :
  ?runs:int ->
  ?depth:int ->
  Explore.spec ->
  Dsm_rdma.Model.t * Dsm_rdma.Model.t ->
  outcome
(** Explore [runs] (default 100) schedules of [spec] under the {e first}
    backend — random walks, or every deviation within the first [depth]
    choice points when [depth] is given — and replay each schedule's
    decision list under both backends. [spec]'s own [model] field is
    ignored; the pair argument is authoritative. Raises
    [Invalid_argument] (or [Sys_error]) exactly when {!Explore.create_ctx}
    would: unknown scenario, unreadable program, invalid process
    count. *)
