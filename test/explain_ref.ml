(* Reference oracle for the race report's sync edge: the search as it
   was before the window index kept each endpoint pair's best delivery
   and each node's lock and RMW events. Every race scans every step of
   the window, oldest first: lock releases and acquisitions, RMWs, and
   deliveries (each paired with the latest earlier send of its
   (src, dst, op)). A candidate replaces the best one whenever its edge
   time is at least the best's, so on equal times the later step wins.
   The live [Explain] must pick the same edge for any window, whatever
   order its times come in. *)

module Probe = Dsm_obs.Probe
module Msg = Dsm_obs.Msg
open Dsm_obs.Explain

type step = Sync of Probe.event | Delivery of msg

let steps window =
  let sent = Hashtbl.create 64 in
  List.filter_map
    (fun (ev : Probe.event) ->
      match ev with
      | Msg_sent { time; src; dst; msg } ->
          Hashtbl.replace sent (src, dst, msg.Msg.op) time;
          None
      | Msg_delivered { time; src; dst; msg } ->
          Some
            (Delivery
               {
                 m_src = src;
                 m_dst = dst;
                 m_op = msg.Msg.op;
                 m_label = Msg.label msg;
                 m_sent =
                   (match Hashtbl.find_opt sent (src, dst, msg.Msg.op) with
                   | Some t0 -> t0
                   | None -> -1.);
                 m_delivered = time;
               })
      | Lock_acquired _ | Lock_released _ | Rmw _ -> Some (Sync ev)
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
      | Sync (Lock_released { time; pid; node = n'; offset = o'; len = l' })
        when involves pid ~p1 ~p2 && overlaps ~node ~offset ~len n' o' l' ->
          if pid = p1 then released1 := Some time else released2 := Some time
      | Sync (Lock_acquired { time; pid; node = n'; offset = o'; len = l' })
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
      | Sync (Rmw { time; node = n'; origin; offset = o'; len = l'; kind })
        when overlaps ~node ~offset ~len n' o' l' ->
          consider
            (Rmw_serialization
               { node = n'; origin; offset = o'; len = l'; kind; time })
      | Sync _ | Delivery _ -> ())
    (steps window);
  !best
