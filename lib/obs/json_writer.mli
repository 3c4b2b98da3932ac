(** The one JSON writer: race reports, Perfetto timelines, metrics dumps
    and bench rows all stream through it into a caller's [Buffer.t].
    It owns the only string escaper, the number formats and the [,]/[:]
    separators, and builds no document tree. *)

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

val fixed : int -> Buffer.t -> float -> unit
(** [fixed n buf f] writes [f] as C's ["%.nf"] does, [0 <= n <= 9]. *)

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
