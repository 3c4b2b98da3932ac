(* Reference serial-specification oracle for one-sided RMWs: the
   independent checker that [Dsm_rdma.Coherence] absorbed. It keeps its
   own reference heap, keyed by [(node, offset)], and shares no code
   with the coherence checker's shadow, so [test_rmw]'s "matches the
   reference oracle" property can hold the merged checker's RMW
   violations and final shadow to it.

   The NIC applies every RMW on a granule under the target's region
   lock, so within one run the applies on a word are totally ordered.
   This sink of the probe bus's apply and rmw classes replays that order
   against an atomic reference heap:
   each RMW must (a) have read exactly the value the reference heap
   holds at its linearization point, and (b) have left behind exactly
   [apply_atomic kind old] / [apply_acc aop old operand]. Any lost
   update — e.g. the planted [Skip_rmw_write_mark] bug, which reads the
   old value under the lock but commits the write after releasing it —
   shows up as a mismatch between an RMW's observed old value and the
   reference value, because some earlier apply's effect went missing.

   Plain puts participate too (a committed put overwrites the reference
   word), so an RMW torn by a concurrent put is also caught; so do get
   landings into public memory (the getter's own write, observed like a
   put). Words first seen via a read or an RMW are adopted rather than
   checked — there is no declared initial image, which is the one place
   [Coherence] is stricter. Duplicate applies (raw faulty links without
   the reliable transport) are each self-consistent against the
   reference heap, so fault-injected runs stay clean unless atomicity
   is genuinely broken. *)

module Machine = Dsm_rdma.Machine
module Message = Dsm_rdma.Message
module Probe = Dsm_obs.Probe

type t = {
  bus : Probe.t; (* read for each RMW's time *)
  heap : (int * int, int) Hashtbl.t; (* (node, offset) -> reference value *)
  mutable violations : string list; (* newest first *)
  mutable checked : int; (* RMW apply events replayed *)
}

let violate t fmt = Printf.ksprintf (fun s -> t.violations <- s :: t.violations) fmt

(* One word of the reference heap at its linearization point: [old] is
   what the NIC claims the cell held, [result] what it left behind,
   [spec] the serial specification's result for [old]. *)
let step_word t ~what ~node ~offset ~origin ~old ~result ~spec =
  let time = Probe.now t.bus in
  t.checked <- t.checked + 1;
  (match Hashtbl.find_opt t.heap (node, offset) with
  | None -> () (* first sighting: adopt the observed old value *)
  | Some ref_value when ref_value <> old ->
      violate t
        "%s at t=%.3f on %d[%d] by P%d: read %d but the reference heap \
         holds %d (lost update)"
        what time node offset origin old ref_value
  | Some _ -> ());
  if result <> spec then
    violate t
      "%s at t=%.3f on %d[%d] by P%d: left %d behind but the serial \
       specification of old=%d gives %d"
      what time node offset origin result old spec;
  Hashtbl.replace t.heap (node, offset) result

let observe t (ev : Probe.event) =
  match ev with
  | Write_applied { node; offset; data; _ } ->
      Array.iteri
        (fun i v -> Hashtbl.replace t.heap (node, offset + i) v)
        data
  | Read_served { node; offset; data; _ } ->
      (* Adopt-only: a read is evidence of current contents (possibly
         initialized out of band), not something to check — reads are
         the coherence checker's job. *)
      Array.iteri
        (fun i v ->
          if not (Hashtbl.mem t.heap (node, offset + i)) then
            Hashtbl.add t.heap (node, offset + i) v)
        data
  | Atomic_applied { node; offset; kind; old_value; new_value; origin } ->
      let what =
        match kind with
        | Message.Fetch_add _ -> "fetch_add"
        | Message.Compare_and_swap _ -> "cas"
      in
      step_word t ~what ~node ~offset ~origin ~old:old_value
        ~result:new_value
        ~spec:(Message.apply_atomic kind old_value)
  | Acc_applied { node; offset; aop; old; data; result; origin } ->
      let what =
        match aop with
        | Message.Add -> "acc:add"
        | Min -> "acc:min"
        | Max -> "acc:max"
        | Band -> "acc:band"
        | Bor -> "acc:bor"
      in
      Array.iteri
        (fun i o ->
          step_word t ~what ~node ~offset:(offset + i) ~origin ~old:o
            ~result:result.(i)
            ~spec:(Message.apply_acc aop o data.(i)))
        old
  | _ -> ()

let attach m =
  let bus = Dsm_sim.Engine.probe (Machine.sim m) in
  let t = { bus; heap = Hashtbl.create 64; violations = []; checked = 0 } in
  Probe.attach bus Probe.(apply lor rmw) (observe t);
  t

let violations t = List.rev t.violations

let is_clean t = t.violations = []

let checked t = t.checked

let expected t ~node ~offset = Hashtbl.find_opt t.heap (node, offset)
