(** Causal race explanations: one race signal, the provenance endpoint
    and the flight-recorder window correlated into a structured,
    deterministically-rendered report.

    This module is plain data end to end — pids, times, strings and
    dense [int array] clock snapshots — because [dsm_obs] sits below the
    clock/detector libraries. [Dsm_core.Diagnose] lowers [Report.race]
    values into {!access} records; the explorer's [Explain_run] drives
    the whole pipeline from a replay token.

    Construction is pure and rendering uses fixed formats, so the same
    inputs always produce byte-identical text and JSON — the property
    the acceptance gate checks across [--jobs]×[--chunk] and fresh-run
    vs [--replay]. *)

(** One endpoint of the explained conflict. [time]/[op]/[event_id] are
    [-1(.)] when unknown. *)
type access = {
  pid : int;
  kind : string;  (** "read" | "write" | "atomic-update" *)
  time : float;
  op : int;  (** detector checked-op ordinal *)
  event_id : int;
  clock : int array;
}

(** A delivered protocol message, paired with its send. *)
type msg = {
  m_src : int;
  m_dst : int;
  m_op : int;
  m_label : string;
  m_sent : float;  (** -1. when the send fell outside the window *)
  m_delivered : float;
}

(** The most recent event in the window that could have ordered the two
    endpoints — the "this is the sync that failed you" witness. *)
type sync_edge =
  | Lock_handoff of {
      node : int;
      offset : int;
      len : int;
      from_pid : int;
      to_pid : int;
      released : float;
      acquired : float;
    }
  | Message of msg  (** a delivery between the two endpoints *)
  | Rmw_serialization of {
      node : int;
      origin : int;
      offset : int;
      len : int;
      kind : string;
      time : float;
    }

type component = int * int * int
(** [(i, accessor_tick, datum_tick)] — one clock coordinate where the
    two clocks disagree. *)

type t = {
  cause : string;  (** "race" | "atomicity" *)
  node : int;
  offset : int;
  len : int;
  against : string;  (** "general" | "write" | "serial-spec" *)
  flagged : access;
  datum_clock : int array;
  prior : access option;
  ahead : component list;  (** accessor strictly ahead (first 8) *)
  ahead_count : int;
  behind : component list;  (** accessor strictly behind (first 8) *)
  behind_count : int;
  sync_edge : sync_edge option;
  chain : msg list;
      (** recent delivered messages touching the endpoints, oldest
          first, capped at 8. Every explanation of one endpoint pair
          built from one {!index} holds the very same list. *)
  window_events : int;
  detail : string;
}
(** [sync_edge] and [chain] come from the flight window held when the
    report is explained, not from the window at the race: on a run
    that goes on after its first races, both can postdate the race by
    far. The window holds the run's last events, so an early race can
    print a chain of much later traffic and "no sync edge ... in the
    recorded window" although the two processes synchronized before
    the race. *)

type index
(** One flight-recorder window, indexed once per report in one pass:
    every delivery paired with the time of its send and its label
    rendered once; for each endpoint pair, its latest delivery; and for
    each node, its lock and RMW events in window order. Explaining a
    race then costs two table lookups and a scan of its granule's node's
    lock and RMW steps, never a scan of the window.

    The sync edge is the candidate with the greatest (edge time, window
    position): on equal times the later step in the window wins. That
    is what a forward scan of the window picks when it keeps a
    candidate whenever its time is at least the best one's, for any
    window, in time order or not (simulated times are never NaN). The
    candidates are a delivery between the two endpoints, a lock
    hand-off between them on a range overlapping the granule (an
    acquisition by one after a release by the other), and an RMW on an
    overlapping range.

    The message chain depends only on the window and the endpoint pair,
    so the index memoizes it: the first race of a pair (in either order)
    scans for it, and every later one shares that list. The memo makes
    an index mutable: one report, one domain. *)

val index : Probe.event list -> index
(** Index a window, oldest first ({!Flight.events}). A delivery is
    paired with the latest earlier send of the same (src, dst, op);
    one whose send predates the window gets [m_sent = -1.]. Node ids
    are non-negative. *)

val of_race :
  node:int ->
  offset:int ->
  len:int ->
  against:string ->
  flagged:access ->
  datum_clock:int array ->
  ?prior:access ->
  index:index ->
  unit ->
  t
(** Explain one happens-before race: computes the incomparable clock
    components, and finds in the indexed window the last sync edge
    between the endpoints and the recent message chain. *)

val of_atomicity :
  node:int ->
  offset:int ->
  len:int ->
  flagged:access ->
  ?prior:access ->
  index:index ->
  detail:string ->
  unit ->
  t
(** Explain a serial-spec violation that produced {e no} race signal
    (e.g. a planted RMW-atomicity bug): endpoints come from provenance,
    and their clocks are typically ordered — which is exactly the
    story: synchronization looked right, the applied values were not. *)

val to_text : t -> string
(** TSan-style two-sided report. *)

val list_to_json : t list -> string
(** [{"explanations": [...]}] document, one compact object per
    explanation in a stable field order. Fixed keys are written as
    literals and values through {!Json_writer}'s allocation-free
    writers. A first pass sums each explanation's length through
    {!Json_writer}'s length functions; the document is then allocated
    once, at that exact length, and each explanation is written into a
    small scratch buffer and copied into it. Nothing regrows, nothing
    is reserved beyond the document, and no second document-sized block
    is built. Each distinct chain is rendered once per document: a
    later explanation whose [chain] is physically the same list (its
    pair's memo, see {!index}) copies that JSON fragment. The bytes are
    those of writing every explanation in full, whatever the list
    mixes; the fragment cache lives and dies in one call. *)

val annotate : Timeline.t -> t -> unit
(** Add instant marks at both endpoints and a flow arrow between them
    to an existing Perfetto timeline. *)
