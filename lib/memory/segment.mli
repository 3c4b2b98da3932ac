(** A word-addressable memory segment.

    The model machine's memory is an array of 63-bit words. Segments do
    bounds checking on every access: the simulated NIC must fail loudly on
    a malformed remote access rather than corrupt a neighbouring variable,
    since silent corruption would invalidate the race experiments. *)

type t

val create : words:int -> t
(** [create ~words] is a zero-filled segment. Raises [Invalid_argument]
    when [words < 0]. *)

val read : t -> offset:int -> int
(** Raises [Invalid_argument] out of bounds. *)

val write : t -> offset:int -> int -> unit

val read_block : t -> offset:int -> len:int -> int array
(** Fresh array of [len] words. *)

val write_block : t -> offset:int -> int array -> unit

val fill : t -> offset:int -> len:int -> int -> unit
