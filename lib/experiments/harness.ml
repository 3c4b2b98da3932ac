open Dsm_sim
module Machine = Dsm_rdma.Machine

type experiment = {
  id : string;
  paper_artifact : string;
  run : Format.formatter -> unit;
}

let section ppf e =
  Format.fprintf ppf "@.=== %s — %s ===@.@." e.id e.paper_artifact;
  e.run ppf;
  Format.pp_print_flush ppf ()

let fresh_machine ?(n = 3) ?(latency = Dsm_net.Latency.Constant 1.0) ?model
    () =
  let sim = Engine.create () in
  Machine.create sim ~n ~latency ?model ()

let run_to_completion m =
  match Machine.run m with
  | Engine.Completed -> ()
  | Engine.Blocked k ->
      failwith (Printf.sprintf "experiment blocked with %d processes" k)
  | Engine.Stopped | Engine.Time_limit_reached | Engine.Event_limit_reached ->
      failwith "experiment was cut off"

(* Arrows pair sends with deliveries through [Dsm_obs.Msg.pending], as
   the Perfetto timeline's flows do; a delivery with no queued send
   draws no arrow. *)
let collect_arrows bus =
  let arrows = ref [] and sent = Dsm_obs.Msg.pending () in
  Dsm_obs.Probe.attach bus Dsm_obs.Probe.msg (function
    | Dsm_obs.Probe.Msg_sent { time; src; dst; msg } ->
        Dsm_obs.Msg.push_sent sent ~src ~dst (Dsm_obs.Msg.label msg) time
    | Dsm_obs.Probe.Msg_delivered { time; src; dst; msg } -> (
        let label = Dsm_obs.Msg.label msg in
        match Dsm_obs.Msg.pop_sent sent ~src ~dst label with
        | Some send_time ->
            arrows :=
              { Dsm_trace.Spacetime.send_time; recv_time = time; src; dst;
                label }
              :: !arrows
        | None -> ())
    | _ -> ());
  fun () -> List.rev !arrows

let private_with m ~pid words =
  let r = Machine.alloc_private m ~pid ~len:(Array.length words) () in
  Dsm_memory.Node_memory.write (Machine.node m pid) r words;
  r

let fmt_ratio a b = Printf.sprintf "%.2fx" (a /. b)

let fmt_us t = Printf.sprintf "%.2f us" t
