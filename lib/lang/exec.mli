(** The run-time for lowered programs: executes the SPMD body on every
    node of a machine.

    Shared arrays are laid out cyclically over the nodes (element [i] on
    node [i mod n]) and, when a detector is attached, registered as
    shared data. [Checked] accesses run through the detector's
    Algorithms 1–2; [Raw] accesses use the NIC primitives directly —
    with a detector attached but a [Raw] program, races happen {e
    invisibly}: the instrumented/uninstrumented contrast of E17. *)

type runtime

val setup :
  Dsm_rdma.Machine.t -> ?detector:Dsm_core.Detector.t -> Ir.program -> runtime
(** Allocates the arrays, the collectives and one interpreter process per
    node; run the machine afterwards. [Checked] accesses with no
    [detector] raise {!Runtime_error} at execution. Before allocating
    anything it checks that every shared array fits the public words the
    nodes have left beside the collectives' [n] reduction words per
    node, and raises [Invalid_argument] naming the first array that
    does not, its length and the segment's capacity. *)

val array_contents : runtime -> string -> int array
(** Meta-level, after the run: the elements of a shared array.
    Raises [Not_found] for an unknown name. *)

exception Runtime_error of string
(** Index out of bounds, division by zero, a negative [compute]
    duration, missing detector for a checked access. A run raises it
    wrapped in [Dsm_sim.Engine.Process_failure]. *)
