(** Fixed-width text tables for the benchmark harness output. *)

type t

val create : headers:string list -> t

val add_row : t -> string list -> unit
(** Raises [Invalid_argument] when the row width differs from the
    header width. *)

val render : t -> string
(** Columns auto-sized to content; header separated by a dashed rule. *)

val print : t -> unit
(** [render] to stdout with a trailing newline. *)
