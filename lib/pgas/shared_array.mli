(** UPC-style shared arrays: a global array of words spread over the
    processes' public segments (§3.1's global address space).

    The layout decides element affinity, and the library resolves every
    index to a [(processor, local address)] couple — the address
    resolution the paper assigns to the compiler. Under a checked
    environment each element is registered as one shared datum, so the
    detector tracks races per element. *)

type layout =
  | Block       (** contiguous chunks: element [i] on node [i / ceil(len/n)] *)
  | Cyclic      (** round robin: element [i] on node [i mod n] *)
  | On_node of int  (** whole array hosted by one node *)

type t

val create :
  Env.t -> name:string -> len:int -> ?layout:layout -> unit -> t
(** [create env ~name ~len ()] allocates the chunks on every node (default
    layout {!Block}) and registers each one-word element with the
    detector as one shared datum. Also reserves a private one-word
    scratch buffer per node for staging. Raises [Invalid_argument] when
    [len < 1] or an [On_node] pid is out of range,
    {!Dsm_memory.Allocator.Exhausted} when a public segment is full. *)

val length : t -> int

val region_of : t -> int -> Dsm_memory.Addr.region
(** The element's public region: the resolved global address; its
    [pid] is the element's affinity. Raises [Invalid_argument] out of
    bounds. *)

val read : t -> Dsm_rdma.Machine.proc -> int -> int
(** [read a p i] fetches element [i] with a one-sided get (checked under a
    checked environment) and returns its value. *)

val write : t -> Dsm_rdma.Machine.proc -> int -> int -> unit
(** [write a p i v] stores [v] into element [i] with a one-sided put. *)

val peek : t -> int -> int
(** Meta-level direct read (no simulation, no messages): for tests and
    result validation only. *)

val poke : t -> int -> int -> unit
(** Meta-level direct write: for initializing test fixtures only. *)

val my_indices : t -> pid:int -> int list
(** The element indices with affinity to [pid], ascending — the usual
    "upc_forall affinity" iteration space. *)
