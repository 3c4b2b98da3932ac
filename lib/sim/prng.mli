(** Deterministic pseudo-random numbers (splitmix64).

    The simulator must be bit-reproducible across runs and platforms, so it
    does not use [Stdlib.Random]. Splitmix64 is small, fast, and splittable:
    {!split} derives an independent stream, which lets each simulated node
    or workload own a private generator while the whole experiment remains a
    pure function of one seed. *)

type t

val create : seed:int -> t
(** [create ~seed] is a fresh generator. Distinct seeds give independent
    streams; the same seed always yields the same sequence. *)

val reseed : t -> seed:int -> unit
(** [reseed g ~seed] resets [g] in place to the state of
    [create ~seed] — the arena-reuse path of [Engine.reset]. *)

val split : t -> t
(** [split g] advances [g] and returns a new generator statistically
    independent from [g]'s future output. *)

val resplit : t -> into:t -> unit
(** [resplit src ~into] is [split src] performed in place: [into] ends in
    exactly the state a fresh [split src] would have, [src] advances one
    step. Lets a component reuse its generator object across resets while
    reproducing the fresh-construction stream bit-identically. *)

val int : t -> int -> int
(** [int g bound] is uniform in [\[0, bound)]. Raises [Invalid_argument]
    when [bound <= 0]. *)

val float : t -> float -> float
(** [float g bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool

val bernoulli : t -> p:float -> bool
(** [bernoulli g ~p] is [true] with probability [p] (clamped to [0,1]). *)

val exponential : t -> mean:float -> float
(** Exponentially distributed value with the given mean — used for jittered
    latency models. Raises [Invalid_argument] when [mean <= 0]. *)
