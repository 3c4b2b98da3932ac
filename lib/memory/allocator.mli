(** Bump allocation with a symbol table.

    Plays the role the paper assigns to the compiler (§3.1): deciding where
    a shared variable lives inside a process's public segment and
    remembering the mapping from source-level names to offsets so that the
    PGAS layer can resolve [(processor, address)] couples. *)

type t

exception Exhausted of { capacity : int; used : int; want : int }
(** The segment's [capacity] words cannot hold [want] more after [used]:
    the run asked for more memory than the machine was built with. A
    command line reports it as bad input (too many processes for the
    segment size), not as an internal error. *)

val create : words:int -> t
(** Allocator over a segment of [words] words, starting empty. *)

val capacity : t -> int

val allocated : t -> int
(** Words handed out so far. *)

val alloc : t -> ?name:string -> len:int -> unit -> int
(** [alloc a ~name ~len ()] reserves [len] words and returns their base
    offset. Raises [Invalid_argument] when [len < 1], {!Exhausted} when
    the segment is full, [Failure] when [name] is already bound. *)

val lookup : t -> string -> (int * int) option
(** [lookup a name] is [Some (offset, len)] for a named allocation. *)

val symbols : t -> (string * int * int) list
(** All named allocations, in allocation order — used to print Figure 1's
    memory map in experiment E1. *)

val reset : t -> unit
(** Forgets all allocations and names. *)
