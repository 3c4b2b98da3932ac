(** A miniature PGAS language: the surface programs of the §5.2
    "pre-compiler" deployment.

    Programs are SPMD: every process runs [body] with its own private
    environment; the [shared] declarations are the global address space
    (the compiler decides their affinity, §3.1). Remote data accesses are
    the {!Load} expression and the {!Store}/{!Fetch_add} statements —
    exactly the places where the pre-compiler of §5.2 may insert
    race-detection wrappers (see [Compile]). *)

type binop = Add | Sub | Mul | Div | Mod | Eq | Lt

type expr =
  | Int of int
  | Var of string  (** private variable *)
  | Mine  (** this process's rank *)
  | Procs  (** number of processes *)
  | Load of string * expr  (** shared array element [name\[idx\]] *)
  | Binop of binop * expr * expr

type stmt =
  | Skip
  | Let of string * expr  (** private assignment *)
  | Store of string * expr * expr  (** [name\[idx\] := e] — one-sided put *)
  | Fetch_add of string * expr * expr
      (** [name\[idx\] +>= e] — NIC atomic *)
  | Barrier
  | Compute of expr  (** model [e] microseconds of local work *)
  | Seq of stmt list
  | If of expr * stmt * stmt  (** nonzero = true *)
  | For of string * expr * expr * stmt  (** inclusive bounds *)
  | While of expr * stmt
      (** runs while the condition is nonzero. Termination is the
          program's responsibility; a spin loop should contain a
          [Compute] so simulated time advances. *)

type shared_decl = { name : string; length : int }

type program = { shared : shared_decl list; body : stmt }

val validate : program -> (unit, string) result
(** Static checks the real pre-compiler would do: duplicate or undeclared
    shared names, empty arrays, [Load]/[Store] of undeclared arrays,
    private variables used before definition (per straight-line scope;
    loop indices count as defined inside their body). *)

val pp_program : Format.formatter -> program -> unit
(** The rendering is valid concrete syntax: for any validated program,
    [Parser.parse (render p)] re-reads an equal AST (the round-trip
    property checked in the test suite). *)
