(** Pluggable memory-model backends (ROADMAP item 4).

    The paper fixes one coherence model: puts apply atomically under the
    destination region's NIC lock, and a get serializes behind in-flight
    puts by holding that lock across its round trip (Figure 3). This
    module captures those ordering assumptions — and the
    happens-before edges the race detector derives from each message
    class — as a small hook record, so the same program and schedule can be checked under the paper's
    model, under relaxed RDMA-style semantics, or against a sequential
    reference, and the race sets diffed mechanically
    ([dsmcheck explore --diff-models]).

    Backends are identified by {!t}; {!hooks} is what the machine and
    detector actually consult (plain booleans unpacked at construction,
    so model indirection costs nothing per message). *)

type t = Nic_atomic | Relaxed | Eventual | Seq_consistent
(** - [Nic_atomic] — the paper's model, and the default: puts apply
      whole-span under the region lock, gets hold the destination lock
      across the round trip, RMWs serialize through the S clock.
      Bit-identical to the pre-model behavior.
    - [Relaxed] — non-atomic puts (a multi-word put applies word by
      word, opening torn-read windows), no get-delays-put
      serialization, and RMWs carry no serialization edge in the
      detector: concurrent RMWs to the same granule are racy.
    - [Eventual] — [Relaxed], plus per-edge reordering of put frames to
      distinct granules (put frames skip the fabric's FIFO floor) and
      reads acquire no write history: only explicit synchronization
      orders anything.
    - [Seq_consistent] — the reference model: total store order. Every
      access additionally acquires the granule's full access history,
      so only genuinely unsynchronized concurrency races. *)

type hooks = {
  (* protocol hooks — consulted by Machine *)
  atomic_puts : bool;
      (** apply a put's whole span in one step under the destination
          region lock; when false, multi-word puts apply word by word
          with scheduling points in between *)
  get_delays_put : bool;
      (** a get holds the destination region lock across its round trip
          (Figure 3), so an in-flight put cannot apply inside the get
          window; when false the lock is released before the request is
          sent *)
  put_reorder_granules : bool;
      (** put frames may overtake one another on the same (src, dst)
          edge — they skip the fabric's FIFO delivery floor *)
  (* detector hooks — consulted by Detector, per message class *)
  read_acquires_writes : bool;
      (** a read (get, and the read half of an RMW) acquires the
          granule's write and RMW history: later accesses by the reader
          are ordered after the writes it observed *)
  rmw_acquires_order : bool;
      (** RMWs serialize through the granule's S clock — acquire it on
          check, mark it on apply, release the accessor's clock into it
          on completion — so concurrent RMWs to the same granule never
          race with each other *)
  write_acquires_order : bool;
      (** a write additionally acquires the granule's full access
          history (total store order): any two writes the schedule
          ordered are ordered for the detector too *)
}

val hooks : t -> hooks

val name : t -> string
(** Stable lowercase identifier: ["nic_atomic"], ["relaxed"],
    ["eventual"], ["seq_consistent"]. *)

val of_name : string -> (t, string) result
(** Inverse of {!name}; also accepts ["nic-atomic"] / ["seq-consistent"]
    spellings and the ["sc"] shorthand. *)

val default : t
(** [Nic_atomic] — the paper's model. *)
