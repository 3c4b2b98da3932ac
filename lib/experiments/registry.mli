(** All experiments, E1–E17, in order. *)

val all : Harness.experiment list

val run_all : Format.formatter -> unit

val run_only : Format.formatter -> string -> (unit, string) result
(** Run a single experiment by id, matched case-insensitively ("e7"
    runs E7); [Error] names the unknown id. *)
