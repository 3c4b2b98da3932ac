(** Online memory-coherence and RMW-linearizability checker for the
    simulated machine.

    The paper's title promises {e coherent} distributed memory: every NIC
    serializes the accesses to its public segment, so a get must always
    return, for each word, the value of the last write the NIC applied
    there. This checker validates that property of the substrate itself:
    reads the probe bus's [Dsm_obs.Probe.apply] class — every write to
    public memory, the NIC's applications and the getter's own landing
    of a get into a public destination alike — replays the writes into
    one shadow memory, and compares every served read against it.

    The same shadow is the serial-specification oracle for one-sided
    RMWs. The target NIC applies the RMWs on a granule under the region
    lock, so their applies form a total order per word. An RMW whose
    observed old value diverges from the shadow is a coherence violation
    and a lost update (the §5.2 window the region lock is meant to
    close); one whose committed result diverges from the serial
    specification ([Message.apply_atomic] / [Message.apply_acc]) of its
    old value is a specification violation. Both are reported by
    {!rmw_violations}. Duplicate applies under raw faulty links are
    individually self-consistent and stay clean.

    A word that was initialized out-of-band (a test fixture poked before
    the run) is adopted on first sight, by a read or an RMW, {e unless}
    the scenario declared its initial value via {!declare_init}, in
    which case the first access is checked against the declared image
    like any later one; a word mutated out-of-band {e during} the run —
    or any NIC bug that reorders, loses, or corrupts a write — produces
    a violation. All workloads in the test suite run under this checker
    with zero violations. *)

type t

type violation = {
  time : float;
  node : int;
  offset : int;
  expected : int;
  observed : int;
  origin : int;  (** the process whose access exposed the violation *)
}

val attach : Machine.t -> t
(** Subscribes a checker to the apply class of the machine's probe bus.
    Attach before running. The bus lives on the engine and outlives
    [Machine.reset], so a checker is attached once per engine and sees
    every later run on it: call {!reset} between runs, as the explorer
    does once per walk in a reused arena. *)

val reset : t -> unit
(** Back to the freshly attached state: the shadow (declared images
    included), both violation lists and the checked-word count are
    emptied; the subscription stays. *)

val declare_init : t -> node:int -> offset:int -> int array -> unit
(** [declare_init t ~node ~offset data] seeds the shadow with a
    scenario's declared initial image, so a read of memory that was
    initialized out-of-band but never written during the run is checked
    against the declared value instead of silently adopted. Call after
    {!attach}, before running. *)

val violations : t -> violation list
(** In detection order. *)

val rmw_violations : t -> string list
(** Lost updates and serial-specification violations of RMW applies,
    human-readable, oldest first. Empty on a linearizable run. *)

val expected : t -> node:int -> offset:int -> int option
(** The shadow's current value for a public word, if the word was ever
    declared or observed — what memory must hold at quiescence provided
    only observed writes touched it. Scenario monitors use this to
    compare the final heap against the serial specification. *)

val checked_words : t -> int
(** Words of read data compared so far, an RMW's old value included. *)

val is_clean : t -> bool

val pp_violation : Format.formatter -> violation -> unit
