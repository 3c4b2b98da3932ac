(** Wire encodings for clocks.

    The paper's §4.3 argues (after Charron-Bost) that clocks cannot shrink
    below [n] entries. This module makes the cost concrete: it provides the
    dense encodings used by the simulated NIC messages, plus a differential
    encoding whose {e worst case} is still linear in [n] — the E6 experiment
    measures both. The wire unit is the simulator's machine word. *)

type wire = int array
(** A flat word buffer as carried inside a simulated message. *)

val bytes_of_words : int -> int

(** {1 Dense encodings} *)

val encode_vector : Vector_clock.t -> wire
(** [n + 1] words: dimension header then entries. *)

val decode_vector : wire -> Vector_clock.t
(** Inverse of {!encode_vector}. Raises [Invalid_argument] on a malformed
    buffer. *)

val encode_matrix : Matrix_clock.t -> wire
(** [n*n + 2] words: dimension and owner headers then rows. *)

(** {1 Differential encoding}

    [encode_vector_delta ~since v] ships only the entries of [v] that
    differ from [since], as [(index, value)] pairs after a 2-word header.
    When the receiver already holds [since] this is lossless and often
    short; when every entry moved it degenerates to [2n + 2] words —
    worse than dense, illustrating §4.3. *)

val encode_vector_delta : since:Vector_clock.t -> Vector_clock.t -> wire
(** Raises [Invalid_argument] when the dimensions disagree. *)

(** {1 Byte-level varint encoding}

    LEB128-style: each entry takes [ceil(bits/7)] bytes, so clocks with
    small counters are compact at the {e byte} level — yet the encoding
    still needs at least one byte {e per entry}, so §4.3's
    linear-in-[n] bound survives even here. E6 tabulates it. *)

val encode_vector_varint : Vector_clock.t -> bytes
(** Varint dimension header followed by varint entries. *)

(** {1 Self-framed piggyback}

    The wire form of a clock-carrying message's piggyback:
    [tag; seq; payload...]. The tag records which payload codec was
    chosen (0 dense, 1 sparse, 2 delta) and [seq] is the per-edge
    message number the sender's cache was at when it encoded. A dense
    payload is {!encode_vector}'s, a delta payload
    {!encode_vector_delta}'s, and a sparse payload the [2k + 2] words of
    the dimension, the count [k] of nonzero components and their
    ascending [(pid, tick)] pairs (worst case [2n + 2], still linear in
    [n]). Dense and sparse payloads are self-contained; a delta payload
    is relative to the last clock shipped on the same (src, dst) edge,
    so the decoder demands the expected sequence number and a base
    clock, and raises [Invalid_argument] otherwise — out-of-order
    delivery of a delta is detected, never silently mis-applied.

    The live transport prices its piggybacks rather than building them
    ({!size_piggyback_edge}) and ships only the frame's immediate header
    ({!header}), which the receiver checks ({!check_header}). *)

type piggyback_mode = Dense | Sparse | Delta
(** [Dense] and [Sparse] force that payload on every message (the
    paper's fixed encodings as instances); [Delta] is adaptive — the
    smallest of the three candidate payloads per message, falling back
    to a self-contained form when no cache entry exists yet. A delta is
    chosen only when strictly shorter than both self-contained forms,
    and sparse wins a tie with dense. *)

val encode_piggyback :
  mode:piggyback_mode ->
  seq:int ->
  ?since:Vector_clock.t ->
  Vector_clock.t ->
  wire
(** [encode_piggyback ~mode ~seq ?since v] frames [v] for the wire.
    [since] is the sender's per-edge cache (the last clock shipped on
    this channel); it is only consulted under [Delta], which sizes the
    three candidates in one walk ({!Vector_clock.diff_sizes}) and
    builds only the shortest. Costs O(active v + active since) — O(n)
    only when a clock is dense — plus one allocation of the chosen
    frame. Raises [Invalid_argument] on a negative [seq]. *)

type tally = { mutable dense : int; mutable sparse : int; mutable delta : int }
(** Frames sized by {!size_piggyback_edge}, per payload codec. *)

val tally : unit -> tally
(** A zero tally. *)

val size_piggyback_edge :
  tally:tally ->
  mode:piggyback_mode ->
  cache:Vector_clock.t ->
  Vector_clock.t ->
  int
(** [size_piggyback_edge ~tally ~mode ~cache v] prices the frame
    [encode_piggyback ~mode ~seq ~since:cache v] would build, without
    building it: the same codec, and the same length in words, header
    included. The result packs both into one immediate int, read with
    {!frame_words} and {!header}, beside the count of [v]'s nonzero
    components. Under [Delta] one walk
    ({!Vector_clock.diff_sizes} [~advance:true]) counts [v]'s live
    components and those changed since [cache], and leaves [cache] —
    the sender's per-edge cache — equal to [v], the next delta's base.
    A zero [cache] sizes like no cache at all, so an edge's first frame
    is self-contained. [Dense] and [Sparse] neither read nor advance
    [cache]. The frame's codec is counted in [tally]. Allocates nothing
    once [cache] has held values of [v]'s representations. Raises
    [Invalid_argument] when [cache] and [v] differ in dimension. *)

val size_piggyback_ticked :
  tally:tally -> cache:Vector_clock.t -> last:int -> own:int ->
  Vector_clock.t -> int
(** [size_piggyback_ticked ~tally ~cache ~last ~own v] is
    [size_piggyback_edge ~tally ~mode:Delta ~cache v] in O(1), for a
    [v] that has changed since the edge's last frame only by ticks of
    component [own]: [cache] equals the last frame's clock and [last]
    is that frame's priced result. The length, tag, tally and advanced
    [cache] come out as the walk would leave them; with any other
    change to [v] they are wrong. *)

val frame_words : int -> int
(** [frame_words sized] is the length in words, header included, of
    the frame {!size_piggyback_edge} priced. *)

val header : seq:int -> int -> int
(** [header ~seq sized] is the immediate header [seq * 4 + tag] of the
    priced frame sent as the edge's [seq]-th, [seq >= 0]. *)

val check_header : expect_seq:int -> int -> int
(** [check_header ~expect_seq h] is the receiver's check of a frame's
    {!header}: [expect_seq] is one past the seq of the last frame the
    edge delivered, or [-1] before its first. A self-contained frame
    passes at any seq; a delta must carry [expect_seq] exactly. Returns
    the next [expect_seq], one past [h]'s seq. Raises
    [Invalid_argument] on a negative [h], an unknown tag, a delta on an
    edge that has delivered no frame, or a delta out of sequence. *)

val decode_piggyback :
  expect_seq:int -> ?base:Vector_clock.t -> wire -> Vector_clock.t * int
(** [decode_piggyback ~expect_seq ?base w] is the framed clock, fresh,
    and the frame's sequence number. Self-contained frames (dense,
    sparse) decode at any [seq]; a delta frame requires
    [seq = expect_seq] and [base], the receiver's mirror of the sender's
    cache, which it leaves unchanged. Raises [Invalid_argument] on a
    truncated frame, an unknown tag, a negative [seq], a malformed
    payload, or a delta frame out of sequence or without [base]. *)
