(** Detector configuration: the paper's design choices, each toggleable for
    the ablation experiments of DESIGN.md §5.

    The default configuration is the paper's algorithm as published:
    vector clocks, the §4.4 write-clock refinement, clocks piggybacked on
    the data messages, one clock pair per registered shared variable.
    A transaction always takes its locks in global (pid, offset) order,
    so two crossed transfers cannot deadlock.

    The memory model is not a detector setting: the machine owns it
    ({!Dsm_rdma.Machine.create}'s [?model]), and [Detector.create]
    reads it from there, so the detector's happens-before edges always
    match the protocol that produced the messages. *)

type transport =
  | Inline
      (** detection folded into the NIC's own atomic put/get: no explicit
          lock transaction, clocks ride the data messages — the cheapest
          deployment ("in the communication library", §5.2) *)
  | Piggyback_txn
      (** the paper's Algorithms 1–2 verbatim — explicit lock/unlock
          around the transfer — with the clock exchange piggybacked on
          the data messages *)
  | Explicit_txn
      (** Algorithms 1–2 with Algorithm 5 taken literally: clock reads
          and writes are separate control messages to the datum's node *)

type clock_mode =
  | Vector       (** dimension-[n] clocks: Lemma 1 applies *)
  | Lamport_only
      (** scalar clocks (the E6 ablation): totally ordered, hence no
          incomparability, hence {e no race is ever detected} — the
          bench demonstrates why §4.3's lower bound matters *)

type granularity =
  | Variable          (** one clock pair per registered shared variable —
                          the paper's "a clock for each shared piece of
                          data" *)
  | Block of int      (** one clock pair per aligned block of [k] words *)
  | Word              (** one clock pair per word: finest, costliest *)

type t = {
  use_write_clock : bool;
      (** §4.4: keep a separate write clock [W]; reads are checked against
          [W] only, eliminating read/read false positives *)
  transport : transport;
  clock_mode : clock_mode;
  granularity : granularity;
  record_trace : bool;
      (** also feed a [Dsm_trace.Recorder] for offline ground truth *)
  trace_reads_from : [ `All_writers | `Last_writer ];
      (** reads-from semantics of the recorded trace: [`All_writers]
          matches the clocks' own causality (a reader absorbs the whole
          write clock), [`Last_writer] is strict happens-before — the
          E8 gap measurement *)
  lock_aware_clocks : bool;
      (** extension beyond the paper: propagate causality through
          user-level locks ([Detector.lock]/[Detector.unlock]) by keeping
          a clock per lock — release publishes the holder's clock,
          acquire absorbs it. With the paper's plain clocks ([false],
          the default) lock-disciplined programs produce false positives;
          experiment E11 measures the difference *)
  provenance_depth : int;
      (** how many recent accesses (last writer + recent readers) the
          detector retains per granule so a race can name {e both}
          endpoints (default 4; [0] disables provenance entirely).
          Observation-only: never changes verdicts, schedules or
          fingerprints *)
}

val default : t

val transport_name : transport -> string

val granularity_name : granularity -> string

val validate : t -> t
(** Checks internal consistency (e.g. positive block size); returns the
    config or raises [Invalid_argument]. *)
