(** Metrics registry: named monotonic counters and log-bucket
    histograms.

    Arena-friendly by construction — instruments are allocated on first
    lookup and {!reset} zeroes them in place, so a registry threaded
    through a reused [Explore.ctx] allocates nothing per run.
    {!merge_into} is a commutative, associative sum/min/max fold, so the
    parallel explorer can merge per-domain registries in any completion
    order and still produce a deterministic aggregate. *)

type t
(** A registry. Not thread-safe: use one per domain and {!merge_into}. *)

val create : unit -> t

(** {1 Counters} *)

type counter

val counter : t -> string -> counter
(** Find or create the counter named [name]. The handle stays valid
    across {!reset}; cache it outside hot loops. *)

val incr : counter -> unit

val add : counter -> int -> unit
(** Raises [Invalid_argument] on a negative increment. *)

val value : counter -> int

(** {1 Histograms}

    Power-of-two buckets: bucket [i >= 1] counts values in
    [\[2{^i-1}, 2{^i})]; bucket 0 counts values [<= 0]. *)

type histogram

val histogram : t -> string -> histogram
val observe : histogram -> int -> unit

(** {1 Lifecycle} *)

val reset : t -> unit
(** Zero every instrument in place. Handles remain valid. *)

val merge_into : into:t -> t -> unit
(** Add every instrument of [src] into [into], creating instruments in
    [into] as needed. Order-insensitive across multiple sources. *)

(** {1 Snapshots} *)

type hist_snapshot = {
  count : int;
  sum : int;
  min : int;  (** meaningless when [count = 0] *)
  max : int;
  bucket_counts : (int * int) list;
      (** (bucket lower bound, count), nonzero buckets only, ascending *)
}

type snapshot = {
  counters : (string * int) list;  (** sorted by name *)
  histograms : (string * hist_snapshot) list;  (** sorted by name *)
}

val snapshot : t -> snapshot
val mean : hist_snapshot -> float

val pp : Format.formatter -> snapshot -> unit
(** Aligned pretty table, one instrument per line. *)

val to_json_string : snapshot -> string
(** Plain JSON object [{ "counters": {...}, "histograms": {...} }]. *)
