(** Page-based shared virtual memory with a central manager — the §2
    related-work model (Li & Hudak 1986; the paper's "DSM is often
    modeled as a large cached memory").

    The global address space is an array of pages. Every node caches
    pages in local frames; a {!load} or {!store} on a locally valid page
    is free of communication, while a miss raises a {e page fault} that
    the central manager (node 0) resolves with a write-invalidate
    protocol:

    - read fault: manager forwards to the page's owner, which downgrades
      to [Shared] and ships the page to the faulter (3 messages);
    - write fault: manager first invalidates every cached copy (2
      messages per holder), then has the owner ship the page and
      transfers ownership (3 more).

    Faults on the same page are serialized by the manager. All traffic
    travels on the same priced fabric as the RDMA model, so experiment
    E16 can compare the two models message for message — the contrast
    that motivates the paper's low-level model: no manager, no faults,
    no false sharing, at the price of explicit one-sided transfers. *)

type t

val create :
  Dsm_rdma.Machine.t -> ?page_words:int -> num_pages:int -> unit -> t
(** Installs the SVM services on the machine's NICs and reserves one
    frame per (node, page) in the public segments. Page [p] is initially
    owned by node [p mod n]. Default page size: 64 words. At most one
    SVM instance per machine. *)

val load : t -> Dsm_rdma.Machine.proc -> addr:int -> int
(** [load t p ~addr] reads global word [addr], faulting the page in if
    needed. Raises [Invalid_argument] when out of range. *)

val store : t -> Dsm_rdma.Machine.proc -> addr:int -> int -> unit
(** [store t p ~addr v] writes global word [addr], acquiring page
    ownership (and invalidating all other copies) if needed. *)

(** {1 Protocol counters} *)

val read_faults : t -> int

val write_faults : t -> int
