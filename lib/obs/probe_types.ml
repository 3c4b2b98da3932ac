(* The probe bus's event type: types only, so [Probe]'s interface
   includes it rather than restating it; [Probe] documents the bus. *)

(** One telemetry event. An event carries no time: the bus reads the
    engine's clock once, at emit ({!Probe.now}). *)
type event =
  | Engine_choice of { ready : int; chosen : int }
      (** a scheduler tie turned into an explicit choice point *)
  | Engine_quiescence of { events : int; outcome : string }
      (** the run loop reached a terminal outcome (completed/blocked);
          [events] is the engine's event total since its last reset *)
  | Net_send of { src : int; dst : int; wire_words : int; clock_words : int }
      (** a frame handed to the fabric: [wire_words] is the size the
          chosen encoding actually shipped, of which [clock_words] were
          clock piggyback *)
  | Net_deliver of { src : int; dst : int }
  | Net_drop of { src : int; dst : int }
  | Net_duplicate of { src : int; dst : int }
  | Net_reorder of { src : int; dst : int }
  | Op_begin of { pid : int; op : int; kind : string; target : int }
      (** a one-sided operation ([kind] put/get/atomic/lock) left [pid] *)
  | Op_end of { pid : int; op : int; kind : string }
  | Msg_sent of { src : int; dst : int; msg : Wire.t }
      (** protocol message handed to the fabric: the wire message
          itself, not a copy or a formatted label. Consumers that print
          it call {!Msg.label}; {!Msg.op} is the issuing operation id,
          so a send can be paired with its delivery. *)
  | Msg_delivered of { src : int; dst : int; msg : Wire.t }
  | Lock_acquired of { pid : int; node : int; offset : int; len : int }
  | Lock_released of { pid : int; node : int; offset : int; len : int }
  | Retransmit of { src : int; dst : int; seq : int }
      (** reliable transport resent an unacked frame *)
  | Batch_flush of {
      pid : int;
      node : int;
      kind : string;
      parts : int;
      words : int;
    }
      (** batched coherence flushed [parts] coalesced ops ([kind]
          put/get) totalling [words] data words towards [node] *)
  | Write_applied of {
      node : int;
      offset : int;
      data : int array;
      origin : int;
    }
      (** a write committed to [node]'s public memory at
          [pub\[offset..\]]: a remote put the NIC applied — at {e apply}
          time, after any Figure 3 lock delay; each part of a batch and
          each word of a non-atomic put on its own — or a get's data
          landing in the getter's own public destination ([node] and
          [origin] both the getter) *)
  | Read_served of { node : int; offset : int; data : int array; origin : int }
      (** the NIC read [data] out of public memory to serve [origin]'s
          get *)
  | Atomic_applied of {
      node : int;
      offset : int;
      kind : Wire.atomic_kind;
      old_value : int;
      new_value : int;
      origin : int;
    }
      (** a single-word RMW from [origin] committed at [node]'s NIC under
          the region lock — its linearization point, emitted while the
          lock is still held: [old_value] is what the cell held,
          [new_value] what the RMW left behind (equal on a failed
          compare-and-swap) *)
  | Acc_applied of {
      node : int;
      offset : int;
      aop : Wire.acc_op;
      old : int array;
      data : int array;
      result : int array;
      origin : int;
    }
      (** a span accumulate committed: element-wise
          [result.(i) = apply_acc aop old.(i) data.(i)] under one region
          lock hold over the whole span *)
  | Coherence_violation of { node : int; offset : int; origin : int }
  | Detector_check of { pid : int; kind : string; fast_path : bool }
      (** one checked access; [fast_path] = the accessor clock was still
          an O(1) epoch when the check began *)
  | Race_signal of {
      pid : int;
      node : int;
      offset : int;
      len : int;
      kind : string;
      against : string;
    }
      (** [kind] is the flagged access ("read"/"write"/"atomic-update"),
          [against] the incomparable granule clock it lost to ("general"
          for V, "write" for W) — mirrors [Report.race] so sinks need not
          re-join against the report *)
  | Clock_merge of { pid : int }
      (** the accessor absorbed observed clocks (read/atomic/barrier) *)
  | Run_begin of { run : int }  (** explorer: schedule [run] starting *)
  | Run_end of { run : int; events : int; violating : bool }
  | Violation of { run : int; invariant : string }
  | Domain_claim of { domain : int; first_run : int; count : int }
      (** parallel explorer: worker [domain] claimed the chunk of walks
          [\[first_run, first_run + count)] with one fetch-and-add *)
  | Dpor_prune of { point : int; branch : int }
      (** DPOR: the child deviating at choice point [point] with branch
          [branch] was pruned — its event is in the sleep set, so an
          explored representative covers its whole subtree *)
  | Minimize_step of { len : int; violating : bool }
