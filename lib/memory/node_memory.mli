(** One process's memory: the per-node bundle of Figure 1.

    A node owns a private segment (only its own program touches it), a
    public segment (remotely accessible through the NIC, see [dsm_rdma]),
    a bump allocator + symbol table per segment, and the NIC lock table
    protecting public ranges. *)

type t

val default_words : int
(** Words in each segment unless {!create} is told otherwise: 4096. *)

val create :
  pid:int ->
  ?private_words:int ->
  ?public_words:int ->
  unit ->
  t
(** Defaults: {!default_words} words per segment. *)

val reset : t -> unit
(** [reset t] returns the node to its freshly-[create]d state in place:
    the allocated prefix of each segment is zeroed (untouched words are
    already zero, so cost scales with live data, not capacity), both
    allocators forget their symbols, and the lock table is cleared. *)

val segment : t -> Addr.space -> Segment.t

val allocator : t -> Addr.space -> Allocator.t

val locks : t -> Lock_table.t

val alloc : t -> space:Addr.space -> ?name:string -> len:int -> unit -> Addr.region
(** Allocate and return the global region. *)

val read : t -> Addr.region -> int array
(** [read node r] reads a region that must belong to this node.
    Raises [Invalid_argument] if [r] names another pid. *)

val write : t -> Addr.region -> int array -> unit
(** Length of the data must equal the region length. *)

val memory_map : t -> (Addr.space * string * int * int) list
(** Named allocations of both segments, for the E1 memory-map dump. *)
