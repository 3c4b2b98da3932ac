(** Online memory-coherence checker for the simulated machine.

    The paper's title promises {e coherent} distributed memory: every NIC
    serializes the accesses to its public segment, so a get must always
    return, for each word, the value of the last write the NIC applied
    there. This checker validates that property of the substrate itself:
    it observes every write to public memory ({!Machine.observation}) —
    the NIC's applications and the getter's own landing of a get into a
    public destination alike — replays them into a shadow memory, and
    compares every served read against it.

    A word that was initialized out-of-band (a test fixture poked before
    the run) is adopted on first sight {e unless} the scenario declared
    its initial value via {!declare_init}, in which case the first read
    is checked against the declared image like any later read; a word
    mutated out-of-band {e during} the run — or any NIC bug that
    reorders, loses, or corrupts a write — produces a violation. All
    workloads in the test suite run under this checker with zero
    violations. *)

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
(** Installs the checker as a machine observer. Attach before running. *)

val declare_init : t -> node:int -> offset:int -> int array -> unit
(** [declare_init t ~node ~offset data] seeds the shadow with a
    scenario's declared initial image, so a read of memory that was
    initialized out-of-band but never written during the run is checked
    against the declared value instead of silently adopted. Call after
    {!attach}, before running. *)

val violations : t -> violation list
(** In detection order. *)

val checked_words : t -> int
(** Words of read data compared so far. *)

val adopted_words : t -> int
(** Words first seen through a read (initialized out-of-band). *)

val is_clean : t -> bool

val pp_violation : Format.formatter -> violation -> unit
