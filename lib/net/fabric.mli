(** The interconnect: typed point-to-point message delivery.

    A fabric fully connects [n] nodes: every message crosses one link,
    priced by a {!Latency.t} model (the paper's model works over any
    interconnection network, §3). Each node registers one receive
    handler (its NIC agent — see [dsm_rdma]); {!post} schedules that
    handler to run at the delivery time. Frames are FIFO per (src, dst)
    edge unless a frame opts out, matching the in-order delivery of the
    RDMA fabrics the paper targets (§3.2): two messages from [src] to
    [dst] are delivered in send order even when the latency model is
    jittered.

    A fault plan ({!Fault}) can drop, duplicate, delay and reorder
    frames. On a [reliable] fabric an RC-style transport runs over that
    faulty wire (per-edge sequence numbers, acks, retransmission and
    hold-back), so its handlers still see every posted frame exactly
    once and in per-edge send order.

    Each (src, dst) edge is one record ({!edge}), made on its first
    send: its FIFO floor, its reliable-transport state and the caller's
    own per-edge state, so a send looks its edge up once.

    The fabric also keeps the traffic accounting (messages and payload
    words) that experiments E2/E6/E7 read to price the detector's clock
    piggybacking. *)

type ('msg, 'e) t
(** A fabric carrying ['msg] frames, with caller state ['e] per edge. *)

type ('msg, 'e) edge

val create :
  Dsm_sim.Engine.t ->
  n:int ->
  latency:Latency.t ->
  ?faults:Fault.t ->
  ?reliable:bool ->
  describe:('msg -> string) ->
  state:(unit -> 'e) ->
  unit ->
  ('msg, 'e) t
(** [create sim ~n ~latency ~describe ~state ()] builds a fabric over
    [n] nodes with no handlers registered; [state ()] makes the caller's
    state of each edge when its first frame is sent. Raises
    [Invalid_argument] when [n < 1].

    [faults] (default {!Fault.none}) injects per-link drop / duplicate /
    delay (jitter) / reorder, seed-driven (see {!Fault}), for robustness
    testing: the paper's model — like the RDMA fabrics it abstracts —
    {e assumes reliable, ordered delivery}. Unless [reliable] (default
    [false]) the plan reaches the handlers as it is: a dropped message
    turns into a blocked operation that the engine reports (see the test
    suite), a duplicated one is handled twice and a reordered one
    bypasses the FIFO floor. A [reliable] fabric restores exactly-once,
    in-order delivery. Each edge has one retransmit timer, armed while
    the edge has unacked frames; when it fires it resends, in sequence
    order, every unacked frame last transmitted 25 us ago, so each frame
    is resent every 25 us until acked, and an acked frame leaves no
    event behind. A frame still unacked after 30 resends aborts the run
    with [Failure] naming the edge, the frame's sequence number and
    [describe] of the frame. Counters count each physical transmission,
    acks and retransmits included. *)

val retransmits : ('msg, 'e) t -> int
(** Frames the reliable transport resent (0 unless [reliable]). *)

val faults : ('msg, 'e) t -> Fault.t
(** The active fault plan ({!Fault.none} by default). *)

val register : ('msg, 'e) t -> node:int -> (src:int -> 'msg -> unit) -> unit
(** [register t ~node f] installs [f] as [node]'s receive handler. Raises
    [Invalid_argument] if out of range or already registered. *)

val edge : ('msg, 'e) t -> src:int -> dst:int -> ('msg, 'e) edge
(** [edge t ~src ~dst] is the edge from [src] to [dst], made on the
    first call. Raises [Invalid_argument] on an out-of-range node. *)

val state : ('msg, 'e) edge -> 'e
(** The caller's state of the edge, made by [create]'s [state]. *)

val post :
  ('msg, 'e) t ->
  ('msg, 'e) edge ->
  words:int ->
  wire_words:int ->
  clock_words:int ->
  fifo:bool ->
  label:Dsm_sim.Label.t ->
  'msg ->
  unit
(** [post t e ~words ~wire_words ~clock_words ~fifo ~label m] schedules
    delivery of [m] along [e] to its destination's handler. [words] is
    the {e nominal} payload size used by the latency model and the
    [words_sent] counter. [wire_words] is what the chosen encoding
    actually shipped and [clock_words] how much of that was clock
    piggyback — they feed the true-bytes counters only, never the
    delivery time, so varying the clock wire encoding cannot perturb a
    schedule. [fifo] opts the frame into the edge's FIFO delivery floor;
    [false] lets it overtake — and be overtaken by — other traffic on
    the edge, which is how weak memory-model backends reorder put lanes.
    On a [reliable] fabric every frame is delivered in send order and
    [fifo] is ignored. [label] is the footprint attached to the delivery
    event (and to any duplicate) for schedule exploration. Every
    argument is required, so a call allocates no option box. Sending to
    an unregistered node raises [Failure] at delivery time. A message to
    self is delivered after a fixed small loopback delay instead of the
    latency model's. Raises [Invalid_argument] on a negative size. *)

val messages_sent : ('msg, 'e) t -> int

val words_sent : ('msg, 'e) t -> int
(** Total {e nominal} payload words over all sends — what the latency
    model priced. *)

val wire_words_sent : ('msg, 'e) t -> int
(** Total {e true} wire words over all sends: what the chosen encodings
    actually shipped — the denominator for the clock overhead ratios in
    E2/E6/E7. Equal to {!words_sent} when every send used the nominal
    encoding. *)

val clock_words_sent : ('msg, 'e) t -> int
(** Total clock-piggyback words within {!wire_words_sent} — the
    numerator for the same ratios. *)

val reset : ('msg, 'e) t -> unit
(** [reset t] restores the fabric to its just-[create]d state in place:
    every edge (its FIFO floor, reliable-transport and caller state) and
    all counters are dropped, and the fabric's generator is re-split
    from the owning engine's root stream, exactly as [create] split it.
    Handlers stay registered. Must be called {e after} [Engine.reset] on
    the owning engine so the split consumes the same root-stream draw as
    construction did; a reset fabric is then bit-identical to a fresh
    one. *)
