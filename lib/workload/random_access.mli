(** Random one-sided access workloads: the parameter-sweep driver behind
    experiments E7–E9.

    Every process issues [ops_per_proc] put/get operations against a pool
    of shared variables, with a tunable read fraction, think time between
    operations, and optional periodic barriers (which remove races by
    construction, letting the sweeps separate true races from detector
    noise). The generator is a pure function of [seed]. *)

type params = {
  ops_per_proc : int;
  vars : int;  (** shared variables, allocated round-robin over nodes *)
  var_len : int;  (** words per variable *)
  read_fraction : float;  (** probability an op is a get *)
  atomic_fraction : float;
      (** probability an op is an atomic fetch-and-add on a random word
          of a variable (checked under detection; never races with other
          atomics) *)
  think_mean : float;  (** mean simulated time between ops (exponential) *)
  barrier_every : int option;
      (** insert a barrier after every [k] ops of each process *)
  seed : int;
}

val default : params
(** 50 ops x 4 vars x 4 words, 50% reads, no atomics, 5 us think time,
    no barriers, seed 1. *)

type program
(** A drawn program: each process's op sequence and the variables'
    names, before anything is allocated. *)

val draw : params -> n:int -> program
(** The seed-determined half of {!setup}: the op sequences of [n]
    processes and the variable names, a pure function of [params] and
    [n]. Raises [Invalid_argument] on degenerate parameters. A caller
    that installs the same program on many machines (the explorer's
    reused arenas) draws it once. *)

val install : Dsm_pgas.Env.t -> ?collectives:Dsm_pgas.Collectives.t -> program -> unit
(** The machine half of {!setup}: allocates and registers the
    variables, then spawns one program per node, in {!setup}'s order.
    Raises [Invalid_argument] when the program was drawn for another
    process count, or when [barrier_every] is set without
    [collectives]. *)

val setup : Dsm_pgas.Env.t -> ?collectives:Dsm_pgas.Collectives.t -> params -> unit
(** [install] of the [draw] for the machine's process count. The caller
    then runs the machine. [collectives] is required when
    [barrier_every] is set (raises [Invalid_argument] otherwise). *)
