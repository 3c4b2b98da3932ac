(** A finished execution trace with its happens-before relation.

    The happens-before relation is the transitive closure of
    - program order (events of one process, in order),
    - value flow: a read is ordered after every write whose value it
      observed ([reads-from] edges supplied by the recorder),
    - lock order: a release is ordered before the next acquire of the same
      lock, and
    - barriers: every exit of generation [g] is ordered after every enter
      of generation [g].

    This is the reference semantics for §3.3's definition of a race:
    conflicting accesses with no happens-before path between them. The
    offline checker here is the {e ground truth} against which the online
    detector's verdicts are scored (experiments E8/E9).

    Internally each event gets a vector clock of dimension [n] computed in
    one pass (edges always point from older to newer ids, a recorder
    invariant), so a happens-before query is O(1). *)

type t

val build : n:int -> events:Event.t array -> preds:int list array -> t
(** [build ~n ~events ~preds] assembles a trace. [events.(i)] must have id
    [i]; [preds.(i)] are the {e extra} (non-program-order) predecessor ids
    of event [i], each [< i]. Raises [Invalid_argument] if an invariant is
    broken. Normally called by [Recorder.finish], not directly. *)

val events : t -> Event.t array
(** The events, by id. Do not mutate. *)

type race_pair = { first : Event.access; second : Event.access }
(** A ground-truth race: conflicting accesses, [first.id < second.id],
    such that [first] is not ordered before [second]'s {e program
    predecessor}. The program-predecessor formulation matters for pairs
    connected by a reads-from edge: a read that observes a concurrent
    write is {e racing} with it — the observation itself is not
    synchronization; it only orders the reader's {e subsequent} events.
    This is precisely the quantity the paper's algorithm evaluates (the
    accessor's clock is compared {e before} it absorbs the datum's
    clocks). *)

val races : t -> race_pair list
(** All ground-truth races, ordered by [(second.id, first.id)]. *)

val racy_access_ids : t -> (int, unit) Hashtbl.t
(** The set of access ids participating in at least one race. *)

val to_dot : t -> string
(** Graphviz rendering of events and HB edges (program order solid,
    reads-from dashed, sync dotted). *)
