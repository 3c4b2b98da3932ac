(** The one entry point for a [dsmcheck] run.

    A command describes its run as a {!spec}: a plain record for the
    one-shot commands ([workload], [scale], [run FILE],
    [run --scenario]) and, for [explore], the run's {!Dsm_explore.Token.spec}
    with the search options beside it. {!validate} checks every
    documented limit before anything is allocated and returns the only
    value {!exec} accepts. {!exec} runs it, writes the files it was asked
    for, and returns what the command prints, or an {!error}. This is the
    one place that decides the exit codes' causes: a usage error (124),
    a program fault (3); any other exception is a dsmcheck bug (125). *)

include module type of struct
  include Run_types
end

val failure : explored -> string option
(** The usage error an explored run ends with once it is printed: an
    invariant violated, a model-dependent verdict, or a race count that
    [expect_races] did not expect. *)

type 'a checked

val validate : 'a spec -> ('a checked, error) result
(** Every documented limit, before anything is allocated: [n] against
    {!Dsm_explore.Scenario.min_procs} and
    {!Dsm_pgas.Collectives.check_n}, [--ops], [--rounds], [--chunk],
    [--runs], [--jobs], [--depth], the combinations of [--dpor],
    [--diff-models] and [--replay], the replay token and the [.dsm]
    program. Never raises. *)

val exec : 'a checked -> ('a, error) result
