(** The interconnect: typed point-to-point message delivery.

    A fabric connects [n] nodes over a {!Topology.t} with a {!Latency.t}
    model. Each node registers one receive handler (its NIC agent — see
    [dsm_rdma]); {!send} schedules that handler to run at the delivery
    time. Channels are FIFO by default, matching the in-order delivery of
    the RDMA fabrics the paper targets (§3.2): two messages from [src] to
    [dst] are delivered in send order even when the latency model is
    jittered.

    The fabric also keeps the traffic accounting (messages and payload
    words) that experiments E2/E6/E7 read to price the detector's clock
    piggybacking. *)

type 'msg t

val create :
  Dsm_sim.Engine.t ->
  topology:Topology.t ->
  latency:Latency.t ->
  ?fifo:bool ->
  ?faults:Fault.t ->
  unit ->
  'msg t
(** [create sim ~topology ~latency ()] builds a fabric with no handlers
    registered. [fifo] defaults to [true].

    [faults] (default {!Fault.none}) injects per-link drop / duplicate /
    delay (jitter) / reorder, seed-driven (see {!Fault}), for robustness
    testing: the paper's model — like the RDMA fabrics it abstracts —
    {e assumes reliable, ordered delivery}; the raw protocol layers do
    not retransmit, so a dropped message turns into a blocked operation
    that the engine reports (see the test suite) unless the reliable
    transport of [Dsm_rdma.Machine] is enabled. Counters still count
    each physical transmission. Reordered messages bypass the FIFO
    floor. *)

val messages_dropped : 'msg t -> int

val messages_duplicated : 'msg t -> int

val faults : 'msg t -> Fault.t
(** The active fault plan ({!Fault.none} by default). *)

val nodes : 'msg t -> int

val topology : 'msg t -> Topology.t

val register : 'msg t -> node:int -> (src:int -> 'msg -> unit) -> unit
(** [register t ~node f] installs [f] as [node]'s receive handler. Raises
    [Invalid_argument] if out of range or already registered. *)

val send :
  'msg t ->
  src:int ->
  dst:int ->
  words:int ->
  ?wire_words:int ->
  ?clock_words:int ->
  ?fifo:bool ->
  ?label:Dsm_sim.Label.t ->
  'msg ->
  unit
(** [send t ~src ~dst ~words m] schedules delivery of [m] to [dst]'s
    handler. [words] is the {e nominal} payload size used by the latency
    model and the [words_sent] counter. [wire_words] (default [words])
    is what the chosen encoding actually shipped and [clock_words]
    (default [0]) how much of that was clock piggyback — they feed the
    true-bytes counters only, never the delivery time, so varying the
    clock wire encoding cannot perturb a schedule. [fifo] (default
    [true]) opts this frame into the per-(src, dst) FIFO delivery floor
    when the fabric is FIFO; passing [false] lets the frame overtake —
    and be overtaken by — other traffic on the edge, which is how weak
    memory-model backends reorder put lanes. [label] is the
    footprint attached to the delivery event (and to any duplicate) for
    schedule exploration. Sending to an unregistered node raises
    [Failure] at delivery time. A message to self is delivered after a
    fixed small loopback delay, without touching the interconnect
    counters' hop accounting. *)

val post :
  'msg t ->
  src:int ->
  dst:int ->
  words:int ->
  wire_words:int ->
  clock_words:int ->
  fifo:bool ->
  label:Dsm_sim.Label.t ->
  'msg ->
  unit
(** {!send} with every argument given: the per-message entry of the RDMA
    machine, which passes no optional argument and so allocates no
    option box per frame. *)

val messages_sent : 'msg t -> int

val words_sent : 'msg t -> int
(** Total {e nominal} payload words over all sends — what the latency
    model priced. *)

val wire_words_sent : 'msg t -> int
(** Total {e true} wire words over all sends: what the chosen encodings
    actually shipped — the denominator for the clock overhead ratios in
    E2/E6/E7. Equal to {!words_sent} when every send used the nominal
    encoding. *)

val clock_words_sent : 'msg t -> int
(** Total clock-piggyback words within {!wire_words_sent} — the
    numerator for the same ratios. *)

val reset : 'msg t -> unit
(** [reset t] restores the fabric to its just-[create]d state in place:
    FIFO delivery floors and all counters are zeroed and the fabric's
    generator is re-split from the owning engine's root stream, exactly
    as [create] split it. Handlers stay registered. Must be called
    {e after} [Engine.reset] on the owning engine so the split consumes
    the same root-stream draw as construction did; a reset fabric is then
    bit-identical to a fresh one. *)
