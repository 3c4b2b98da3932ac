(** The one JSON writer: race reports, Perfetto timelines, metrics dumps
    and bench rows all stream through it into a caller's [Buffer.t].
    It owns the only string escaper, the number formats and the [,]/[:]
    separators, and builds no document tree.

    The per-value writers allocate nothing in the common case: a
    string with nothing to escape is copied whole after one scan, an
    int is written digit by digit, an int array element by element,
    and a fixed-decimal float through an exact integer/fraction path
    (see {!fixed}). *)

type value =
  | Int of int
  | String of string
  | Fixed of int * float  (** [Fixed (n, f)]: [f] with [n] decimals *)
  | Ints of int array  (** [[1,2,3]] *)
  | Null

val string : Buffer.t -> string -> unit
(** A quoted string: double quotes and backslashes are backslashed,
    bytes below 0x20 are written as \u00XX, every other byte (UTF-8
    included) passes through. *)

val int : Buffer.t -> int -> unit
(** The decimal digits, as [string_of_int] prints them. *)

val ints : Buffer.t -> int array -> unit
(** [[1,2,3]]. *)

val fixed : int -> Buffer.t -> float -> unit
(** [fixed n buf f] writes [f] exactly as C's ["%.nf"] does,
    [0 <= n <= 9]. A finite [f >= 0.] that is not [-0.] and is below
    [2^52 / 10^n] is written as an integer part and an [n]-digit
    fraction with no allocation: the product [p = f * 10^n] rounds like
    the exact product unless its fraction is exactly one half, and then
    the product's [Float.fma] residual picks the side. A zero residual
    — a true half-unit tie — and every other value (negatives, [-0.],
    NaN, infinities, large values) is formatted by [caml_format_float],
    the primitive behind [Printf]. *)

val value : Buffer.t -> value -> unit

val list : (Buffer.t -> 'a -> unit) -> Buffer.t -> 'a list -> unit
(** [[x1,x2,...]], each element written by the given writer. *)

val option : (Buffer.t -> 'a -> unit) -> Buffer.t -> 'a option -> unit
(** The writer's output for [Some x], [null] for [None]. *)

val key : ?spaced:bool -> Buffer.t -> string -> unit
(** ["k":], or ["k": ] when [spaced]. *)

val field : Buffer.t -> string -> (Buffer.t -> 'a -> unit) -> 'a -> unit
(** [field buf k write x] writes [,"k":] then [x] with [write]: a
    compact member that follows another. *)

val members : ?spaced:bool -> Buffer.t -> (string * value) list -> unit
(** ["k1":v1,"k2":v2] without braces; [spaced] writes [", "] and
    [": "] instead. *)

val obj : Buffer.t -> (string * value) list -> unit
(** [{"k1":v1,"k2":v2}], compact. *)
