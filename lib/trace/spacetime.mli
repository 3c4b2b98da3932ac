(** ASCII space-time diagrams, in the style of the paper's Figures 2–5.

    Processes are vertical lanes; time flows downward; each message
    appears as a send annotation in the source lane and a receive
    annotation in the destination lane. Used by the CLI and the benchmark
    harness to render the reproduced figure scenarios next to their
    detector verdicts. *)

type arrow = {
  send_time : float;
  recv_time : float;
  src : int;
  dst : int;
  label : string;
}
(** One message. [src = dst] loopbacks are rendered in a single lane. *)

type mark = { time : float; pid : int; text : string }
(** A local annotation in one process's lane (an event, a race signal). *)

val render :
  n:int -> arrows:arrow list -> marks:mark list -> unit -> string
(** [render ~n ~arrows ~marks ()] lays out all rows in time order, in
    18-character lanes.
    Raises [Invalid_argument] when [n < 1] or an endpoint is out of
    range. *)
