(* An interface for the export guard's self-test: every value and
   option below has exactly the users its comment names. *)

val used : int -> int
(* called from bin/: no line *)

val test_only : int -> int
(* called only from test/: a [test-only] line *)

val knob : ?depth:int -> unit -> int
(* bin/ calls it without [~depth], test/ passes [~depth]: a
   [test-only-option] line *)

val mixed : ?cap:int -> unit -> int
(* bin/ calls it without [~cap] and passes [~cap] to another function
   in the same file: a [dead-option] line *)

val limited : ?limit:int -> unit -> int
(* bin/ passes [~limit]: no line *)
