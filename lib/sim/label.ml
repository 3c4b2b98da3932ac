(* Event footprint labels for schedule-exploration independence.

   A label is one immediate int carried by a heap entry, summarizing the
   state an event's action will touch: the node whose memory, locks,
   coherence shadow and outgoing channels the handler mutates, and the
   origin process whose operation (and detector process clock) it
   advances. Two labeled events with different nodes AND different
   origins commute: every piece of per-node state (segments, lock
   tables, the coherence shadow, fabric channel floors and transport
   sequencing, which are keyed by the sending node) and every piece of
   per-origin state (process continuations, pending-op ivars, the
   detector's per-process clock) is disjoint between them, so executing
   them in either order yields the same Mazurkiewicz trace.

   [unknown] (0) is the default for every event that does not declare a
   footprint — timers, scenario setup, anything conservative — and is
   dependent with everything, including itself. *)

type t = int

let unknown = 0

(* 20 bits each is far beyond any simulated process count; out-of-range
   components degrade to [unknown], which is always sound. *)
let field_bits = 20

let field_mask = (1 lsl field_bits) - 1

let v ~node ~origin =
  if
    node < 0 || origin < 0 || node >= field_mask - 1
    || origin >= field_mask - 1
  then unknown
  else ((node + 1) lsl field_bits) lor (origin + 1)

let is_known l = l <> unknown

let node l = (l lsr field_bits) - 1

let origin l = (l land field_mask) - 1
