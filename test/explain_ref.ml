(* Reference oracle for the race report's sync edge: the search as it
   was before the window index kept each endpoint pair's best delivery
   and each node's lock and RMW events. Every race scans every step of
   the window, oldest first: lock releases and acquisitions, RMW
   applies, and
   deliveries (each paired with the latest earlier send of its
   (src, dst, op)). A candidate replaces the best one whenever its edge
   time is at least the best's, so on equal times the later step wins.
   The live [Explain] must pick the same edge for any window, whatever
   order its times come in. *)

module Probe = Dsm_obs.Probe
module Msg = Dsm_obs.Msg
open Dsm_obs.Explain

type step = Sync of float * Probe.event | Delivery of msg

let steps window =
  let sent = Hashtbl.create 64 in
  List.filter_map
    (fun (time, (ev : Probe.event)) ->
      match ev with
      | Msg_sent { src; dst; msg } ->
          Hashtbl.replace sent (src, dst, Msg.op msg) time;
          None
      | Msg_delivered { src; dst; msg } ->
          Some
            (Delivery
               {
                 m_src = src;
                 m_dst = dst;
                 m_op = Msg.op msg;
                 m_label = Msg.label msg;
                 m_sent =
                   (match Hashtbl.find_opt sent (src, dst, Msg.op msg) with
                   | Some t0 -> t0
                   | None -> -1.);
                 m_delivered = time;
               })
      | Lock_acquired _ | Lock_released _ | Atomic_applied _ | Acc_applied _
        ->
          Some (Sync (time, ev))
      | _ -> None)
    window

let overlaps ~node ~offset ~len node' offset' len' =
  node = node' && offset < offset' + len' && offset' < offset + len

let involves pid ~p1 ~p2 = pid = p1 || (p2 >= 0 && pid = p2)

let edge_time = function
  | Lock_handoff { acquired; _ } -> acquired
  | Message m -> m.m_delivered
  | Rmw_serialization { time; _ } -> time

let better cand best =
  match best with None -> true | Some b -> edge_time cand >= edge_time b

let find_sync window ~p1 ~p2 ~node ~offset ~len =
  let best = ref None in
  let consider c = if better c !best then best := Some c in
  let released1 = ref None and released2 = ref None in
  List.iter
    (function
      | Sync (time, Lock_released { pid; node = n'; offset = o'; len = l' })
        when involves pid ~p1 ~p2 && overlaps ~node ~offset ~len n' o' l' ->
          if pid = p1 then released1 := Some time else released2 := Some time
      | Sync (time, Lock_acquired { pid; node = n'; offset = o'; len = l' })
        when involves pid ~p1 ~p2 && overlaps ~node ~offset ~len n' o' l' -> (
          let other = if pid = p1 then p2 else p1 in
          match if other = p1 then !released1 else !released2 with
          | Some released when released <= time ->
              consider
                (Lock_handoff
                   {
                     node = n';
                     offset = o';
                     len = l';
                     from_pid = other;
                     to_pid = pid;
                     released;
                     acquired = time;
                   })
          | _ -> ())
      | Delivery m
        when p2 >= 0
             && ((m.m_src = p1 && m.m_dst = p2)
                || (m.m_src = p2 && m.m_dst = p1)) ->
          consider (Message m)
      | Sync (time, Atomic_applied { node = n'; origin; offset = o'; kind; _ })
        when overlaps ~node ~offset ~len n' o' 1 ->
          consider
            (Rmw_serialization
               {
                 node = n';
                 origin;
                 offset = o';
                 len = 1;
                 kind = Probe.atomic_name kind;
                 time;
               })
      | Sync (time, Acc_applied { node = n'; origin; offset = o'; aop; old; _ })
        when overlaps ~node ~offset ~len n' o' (Array.length old) ->
          consider
            (Rmw_serialization
               {
                 node = n';
                 origin;
                 offset = o';
                 len = Array.length old;
                 kind = Probe.acc_name aop;
                 time;
               })
      | Sync _ | Delivery _ -> ())
    (steps window);
  !best
