(** Owner stamps: an O(1) [leq] for a clock known to equal one event's
    clock (FastTrack's epoch, Flanagan and Freund, PLDI 2009).

    Take a system of clocks in which process [p] alone raises component
    [p] of anything, by ticking its own clock, and every other clock is
    a merge of process clocks as they were at some moment. Call [p]'s
    clock {e clean} while nothing has been merged into it since its
    last tick, the one that made its own entry [c]. Then any clock [D]
    equal to that clean clock satisfies, for every clock [C] of the
    system, [D <= C] iff [c <= C.(p)]: a [C] with [C.(p) >= c] learned
    [p]'s clock at a moment after that tick, and by then it was at
    least [D]. The stamp [(p, c)] stands for such a [D].

    A merge into [p]'s clock without a tick ends the clean span: from
    then on two different values share the own entry [c], and the later
    one is not what a [C] with [C.(p) >= c] must cover. Clean spans are
    read from {!Vector_clock.generation}, which every change but a tick
    steps. When every process ticks one shared component (a Lamport
    clock), no stamp holds. *)

type t = private int
(** A stamp, or {!none}. Immediate. *)

val none : t

val leq : t -> Vector_clock.t -> bool
(** [leq st c] is [D <= c] for the clock [D] that [st] stands for, in
    O(1) (O(log active) on a sparse [c]); [false] for {!none}, where
    nothing is known. *)

val merge_into : into:Vector_clock.t -> stamp:t -> Vector_clock.t -> cur:t -> t
(** [merge_into ~into ~stamp src ~cur] merges [src] into [into], whose
    stamp is [stamp], and returns [into]'s new stamp; [cur] is [src]'s
    stamp ({!none} unless [src] is a clean process clock). When [stamp]
    shows [into <= src], [into] takes [src]'s value by
    {!Vector_clock.assign} and the stamp [cur]. Otherwise one walk
    merges ({!Vector_clock.merge_into_equal} when there is a [cur] to
    give): [into] then takes [cur] if it now equals [src], keeps
    [stamp] if nothing rose, and is unstamped otherwise. *)

(** {1 Process clocks} *)

type owners
(** The clean spans of an array of process clocks, clock [p] owned by
    process [p]. *)

val owners : Vector_clock.t array -> owners
(** No clock is clean until its first {!tick}. Raises
    [Invalid_argument] past [2^24] clocks. *)

val tick : owners -> int -> unit
(** [tick o p] ticks clock [p] at component [p] and starts a clean
    span. *)

val current : owners -> int -> t
(** [current o p] is the stamp of clock [p] — [(p, own entry)] — while
    its clean span lasts, {!none} after. O(1). *)
