(* Tests for dsm_net: latency models, the fully connected fabric, FIFO
   delivery, fault injection and the reliable transport. *)

open Dsm_sim
open Dsm_net

let rng () = Prng.create ~seed:1

(* ---------- Latency ---------- *)

let test_latency_constant () =
  let d = Latency.delay (Latency.Constant 3.0) (rng ()) ~words:100 in
  Alcotest.(check (float 1e-9)) "constant ignores size" 3.0 d

let test_latency_linear () =
  let m = Latency.Linear { base = 1.0; per_word = 0.5 } in
  Alcotest.(check (float 1e-9)) "base+size" 6.0
    (Latency.delay m (rng ()) ~words:10)

let test_latency_logp () =
  let m = Latency.Logp { latency = 1.5; overhead = 0.4; gap_per_word = 0.01 } in
  (* L + 2o + words*G *)
  Alcotest.(check (float 1e-9)) "logp" (1.5 +. 0.8 +. 0.64)
    (Latency.delay m (rng ()) ~words:64)

let test_latency_monotone_in_size () =
  let m = Latency.infiniband_like in
  let g = rng () in
  let d1 = Latency.delay m g ~words:1 in
  let d2 = Latency.delay m g ~words:4096 in
  Alcotest.(check bool) "larger is slower" true (d2 > d1)

let test_latency_jitter_adds () =
  let base = Latency.Constant 2.0 in
  let m = Latency.Jittered { model = base; mean_jitter = 1.0 } in
  let g = rng () in
  for _ = 1 to 100 do
    Alcotest.(check bool) "jitter positive" true
      (Latency.delay m g ~words:1 > 2.0)
  done

let test_latency_negative_size () =
  Alcotest.check_raises "negative"
    (Invalid_argument "Latency.delay: negative size") (fun () ->
      ignore (Latency.delay (Latency.Constant 1.) (rng ()) ~words:(-1)))

let test_latency_positive_even_at_zero () =
  let d = Latency.delay (Latency.Constant 0.) (rng ()) ~words:0 in
  Alcotest.(check bool) "floored above zero" true (d > 0.)

(* Each model is named by its compact form, and the two presets by the
   names [of_string] accepts for them. *)
let test_latency_names () =
  Alcotest.(check string) "logp" "logp:1.5:0.4:0.0025"
    (Latency.to_string Latency.infiniband_like);
  Alcotest.(check string) "jittered" "jitter:1:constant:1"
    (Latency.to_string
       (Latency.Jittered { model = Latency.Constant 1.; mean_jitter = 1. }));
  List.iter
    (fun (name, preset) ->
      Alcotest.(check bool) name true (Latency.of_string name = Ok preset))
    [
      ("infiniband", Latency.infiniband_like);
      ("ib", Latency.infiniband_like);
      ("ethernet", Latency.ethernet_like);
    ]

(* ---------- Fabric ---------- *)

let make_fabric ?faults ?reliable ?(latency = Latency.Constant 1.0) sim n =
  Fabric.create sim ~n ~latency ?faults ?reliable
    ~describe:(fun _ -> "frame")
    ~state:ignore ()

(* A frame with the nominal encoding and no footprint. *)
let send ?(fifo = true) fab ~src ~dst ~words msg =
  Fabric.post fab (Fabric.edge fab ~src ~dst) ~words ~wire_words:words
    ~clock_words:0 ~fifo ~label:Label.unknown msg

(* The drops and duplicates the fabric publishes on [sim]'s bus. *)
let fault_counts sim =
  let dropped = ref 0 and duplicated = ref 0 in
  Dsm_obs.Probe.attach (Engine.probe sim) Dsm_obs.Probe.net (function
    | Dsm_obs.Probe.Net_drop _ -> incr dropped
    | Dsm_obs.Probe.Net_duplicate _ -> incr duplicated
    | _ -> ());
  (dropped, duplicated)

(* ---------- Topology: every pair of nodes is one link apart ---------- *)

let test_topo_full () =
  let sim = Engine.create () in
  let n = 5 in
  let fab = make_fabric ~latency:(Latency.Constant 2.0) sim n in
  let arrivals = ref [] in
  for node = 0 to n - 1 do
    Fabric.register fab ~node (fun ~src () ->
        if src <> node then arrivals := Engine.now sim :: !arrivals)
  done;
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      if src <> dst then send fab ~src ~dst ~words:1 ()
    done
  done;
  ignore (Engine.run sim);
  Alcotest.(check (list (float 0.))) "one latency for every pair"
    (List.init (n * (n - 1)) (fun _ -> 2.0))
    !arrivals

let test_topo_validate () =
  Alcotest.check_raises "no nodes"
    (Invalid_argument "Fabric.create: need at least one node") (fun () ->
      ignore (make_fabric (Engine.create ()) 0))

let test_topo_out_of_range () =
  let fab = make_fabric (Engine.create ()) 3 in
  Alcotest.check_raises "src range" (Invalid_argument "Fabric.edge: src")
    (fun () -> send fab ~src:3 ~dst:0 ~words:1 ());
  Alcotest.check_raises "dst range" (Invalid_argument "Fabric.edge: dst")
    (fun () -> send fab ~src:0 ~dst:(-1) ~words:1 ())

let test_fabric_delivers () =
  let sim = Engine.create () in
  let fab = make_fabric sim 2 in
  let got = ref None in
  Fabric.register fab ~node:1 (fun ~src msg -> got := Some (src, msg));
  Fabric.register fab ~node:0 (fun ~src:_ _ -> ());
  send fab ~src:0 ~dst:1 ~words:4 "hello";
  ignore (Engine.run sim);
  Alcotest.(check (option (pair int string))) "delivered" (Some (0, "hello"))
    !got

let test_fabric_latency_applied () =
  let sim = Engine.create () in
  let fab = make_fabric ~latency:(Latency.Constant 2.5) sim 2 in
  let at = ref 0. in
  Fabric.register fab ~node:1 (fun ~src:_ () -> at := Engine.now sim);
  send fab ~src:0 ~dst:1 ~words:1 ();
  ignore (Engine.run sim);
  Alcotest.(check (float 1e-9)) "arrives at 2.5" 2.5 !at

let test_fabric_fifo_ordering () =
  (* With jitter, later sends could overtake earlier ones; FIFO must
     prevent that on a single channel. *)
  let sim = Engine.create ~seed:7 () in
  let latency =
    Latency.Jittered { model = Latency.Constant 1.0; mean_jitter = 5.0 }
  in
  let fab = make_fabric ~latency sim 2 in
  let log = ref [] in
  Fabric.register fab ~node:1 (fun ~src:_ i -> log := i :: !log);
  for i = 1 to 20 do
    send fab ~src:0 ~dst:1 ~words:1 i
  done;
  ignore (Engine.run sim);
  Alcotest.(check (list int)) "in order" (List.init 20 (fun i -> i + 1))
    (List.rev !log)

let test_fabric_no_fifo_can_reorder () =
  let sim = Engine.create ~seed:3 () in
  let latency =
    Latency.Jittered { model = Latency.Constant 1.0; mean_jitter = 10.0 }
  in
  let fab = make_fabric ~latency sim 2 in
  let log = ref [] in
  Fabric.register fab ~node:1 (fun ~src:_ i -> log := i :: !log);
  for i = 1 to 50 do
    send ~fifo:false fab ~src:0 ~dst:1 ~words:1 i
  done;
  ignore (Engine.run sim);
  Alcotest.(check bool) "some reordering occurred" true
    (List.rev !log <> List.init 50 (fun i -> i + 1))

(* Delay is the hop count times the link latency. Every remote pair of
   the fully connected fabric is one hop apart, so a destination far
   away in node index costs the same single link as a neighbour. *)
let test_fabric_hops_scale_delay () =
  let sim = Engine.create () in
  let fab = make_fabric sim 6 in
  let t1 = ref 0. and t3 = ref 0. in
  Fabric.register fab ~node:1 (fun ~src:_ () -> t1 := Engine.now sim);
  Fabric.register fab ~node:3 (fun ~src:_ () -> t3 := Engine.now sim);
  send fab ~src:0 ~dst:1 ~words:1 ();
  send fab ~src:0 ~dst:3 ~words:1 ();
  ignore (Engine.run sim);
  Alcotest.(check (float 1e-9)) "neighbour: 1 hop" 1.0 !t1;
  Alcotest.(check (float 1e-9)) "far index: 1 hop" 1.0 !t3

let test_fabric_self_send () =
  let sim = Engine.create () in
  let fab = make_fabric sim 2 in
  let got = ref false in
  Fabric.register fab ~node:0 (fun ~src () ->
      got := true;
      Alcotest.(check int) "src is self" 0 src);
  send fab ~src:0 ~dst:0 ~words:1 ();
  ignore (Engine.run sim);
  Alcotest.(check bool) "delivered to self" true !got;
  Alcotest.(check bool) "fast loopback" true (Engine.now sim < 0.2)

let test_fabric_counters () =
  let sim = Engine.create () in
  let fab = make_fabric sim 2 in
  Fabric.register fab ~node:1 (fun ~src:_ () -> ());
  send fab ~src:0 ~dst:1 ~words:10 ();
  send fab ~src:0 ~dst:1 ~words:5 ();
  Alcotest.(check int) "messages" 2 (Fabric.messages_sent fab);
  Alcotest.(check int) "words" 15 (Fabric.words_sent fab);
  ignore (Engine.run sim)

let test_fabric_double_register () =
  let sim = Engine.create () in
  let fab = make_fabric sim 2 in
  Fabric.register fab ~node:0 (fun ~src:_ () -> ());
  Alcotest.check_raises "double"
    (Invalid_argument "Fabric.register: handler already registered")
    (fun () -> Fabric.register fab ~node:0 (fun ~src:_ () -> ()))

let test_fabric_unregistered_delivery_fails () =
  let sim = Engine.create () in
  let fab = make_fabric sim 2 in
  send fab ~src:0 ~dst:1 ~words:1 ();
  Alcotest.check_raises "no handler"
    (Failure "Fabric: node 1 has no handler") (fun () ->
      ignore (Engine.run sim))

(* Far into a run a 1e-9 step rounds away (2e7 + 1e-9 = 2e7 in
   doubles), so the floor must step by an ulp: the second of two frames
   sent together on one edge is delivered at a strictly later instant,
   and second even by a chooser that picks the last ready event. *)
let test_fabric_floor_far_in_time () =
  let sim = Engine.create () in
  let fab = make_fabric sim 2 in
  let arrivals = ref [] and log = ref [] in
  let bus = Engine.probe sim in
  Dsm_obs.Probe.attach bus Dsm_obs.Probe.net (function
    | Dsm_obs.Probe.Net_deliver _ ->
        arrivals := Dsm_obs.Probe.now bus :: !arrivals
    | _ -> ());
  Fabric.register fab ~node:1 (fun ~src:_ s -> log := s :: !log);
  Engine.set_chooser sim (Some (fun k -> k - 1));
  Engine.schedule sim ~delay:2e7 (fun () ->
      send fab ~src:0 ~dst:1 ~words:1 "first";
      send fab ~src:0 ~dst:1 ~words:1 "second");
  ignore (Engine.run sim);
  (match List.rev !arrivals with
  | [ a; b ] ->
      Alcotest.(check bool)
        (Printf.sprintf "arrivals increase (%h < %h)" a b)
        true (a < b)
  | l -> Alcotest.failf "%d deliveries probed" (List.length l));
  Alcotest.(check (list string)) "send order" [ "first"; "second" ]
    (List.rev !log)

(* ---------- fault injection ---------- *)

let test_fabric_drop_rate () =
  let sim = Engine.create ~seed:21 () in
  let fab = make_fabric ~faults:(Fault.of_string "drop=0.3") sim 2 in
  let dropped, _ = fault_counts sim in
  let received = ref 0 in
  Fabric.register fab ~node:1 (fun ~src:_ () -> incr received);
  for _ = 1 to 1000 do
    send fab ~src:0 ~dst:1 ~words:1 ()
  done;
  ignore (Engine.run sim);
  let dropped = !dropped in
  Alcotest.(check int) "conservation" 1000 (!received + dropped);
  Alcotest.(check bool) "rate plausible" true (dropped > 200 && dropped < 400)

let test_fabric_duplicates () =
  let sim = Engine.create ~seed:22 () in
  let fab = make_fabric ~faults:(Fault.of_string "dup=0.5") sim 2 in
  let _, duplicated = fault_counts sim in
  let received = ref 0 in
  Fabric.register fab ~node:1 (fun ~src:_ () -> incr received);
  for _ = 1 to 200 do
    send fab ~src:0 ~dst:1 ~words:1 ()
  done;
  ignore (Engine.run sim);
  Alcotest.(check int) "each duplicate delivered" (200 + !duplicated) !received;
  Alcotest.(check bool) "some duplicates" true (!duplicated > 50)

let test_fabric_bad_probability () =
  Alcotest.check_raises "range"
    (Invalid_argument "Fault: drop out of range [0,1]")
    (fun () -> ignore (Fault.of_string "drop=1.5" : Fault.t))

(* ---------- the reliable transport ---------- *)

(* [frames] frames on every edge of a 3-node fabric, every third one
   opting out of the FIFO floor; returns what each node's handler saw,
   per sender, in arrival order. *)
let reliable_traffic fab ~n ~frames =
  let seen = Array.make (n * n) [] in
  for node = 0 to n - 1 do
    Fabric.register fab ~node (fun ~src i ->
        seen.((src * n) + node) <- i :: seen.((src * n) + node))
  done;
  for i = 0 to frames - 1 do
    for src = 0 to n - 1 do
      for dst = 0 to n - 1 do
        if src <> dst then
          send ~fifo:(i mod 3 <> 0) fab ~src ~dst ~words:(1 + (i mod 4)) i
      done
    done
  done;
  seen

let test_reliable_exactly_once_in_order () =
  List.iter
    (fun plan ->
      let sim = Engine.create ~seed:5 () in
      let fab =
        make_fabric ~faults:(Fault.of_string plan) ~reliable:true
          ~latency:
            (Latency.Jittered
               { model = Latency.Constant 1.0; mean_jitter = 2.0 })
          sim 3
      in
      let dropped, duplicated = fault_counts sim in
      let seen = reliable_traffic fab ~n:3 ~frames:40 in
      (match Engine.run sim with
      | Engine.Completed -> ()
      | _ -> Alcotest.failf "%s: run did not complete" plan);
      Array.iteri
        (fun edge got ->
          if edge / 3 <> edge mod 3 then
            Alcotest.(check (list int))
              (Printf.sprintf "%s: edge %d->%d" plan (edge / 3) (edge mod 3))
              (List.init 40 Fun.id) (List.rev got))
        seen;
      let faulted = !dropped + !duplicated in
      Alcotest.(check bool)
        (Printf.sprintf "%s: the plan struck (%d faults, %d retransmits)" plan
           faulted (Fabric.retransmits fab))
        true
        (faulted > 0 && Fabric.retransmits fab > 0))
    [
      "drop=0.3"; "dup=0.4,drop=0.3"; "reorder=0.5,drop=0.2"; "dup=0.5,jitter=3";
    ]

(* A reliable edge 0 -> 1 that drops every copy, and the failure that
   ends its run once frame #0 (put #7) has spent its retries. *)
let dead_link sim =
  let fab =
    Fabric.create sim ~n:2 ~latency:(Latency.Constant 1.0)
      ~faults:(Fault.of_string "drop=1.0")
      ~reliable:true
      ~describe:(Printf.sprintf "put #%d")
      ~state:ignore ()
  in
  Fabric.register fab ~node:0 (fun ~src:_ _ -> ());
  Fabric.register fab ~node:1 (fun ~src:_ _ -> Alcotest.fail "delivered");
  fab

let gives_up sim =
  Alcotest.check_raises "gives up"
    (Failure
       "Fabric: P0->P1 frame #0 undeliverable after 30 retransmits (put #7)")
    (fun () -> ignore (Engine.run sim))

let test_reliable_gives_up () =
  let sim = Engine.create () in
  let fab = dead_link sim in
  let dropped, _ = fault_counts sim in
  send fab ~src:0 ~dst:1 ~words:1 7;
  gives_up sim;
  Alcotest.(check int) "retransmits" 30 (Fabric.retransmits fab);
  Alcotest.(check int) "every copy dropped" 31 !dropped

(* Each edge has one retransmit timer, and an acked frame leaves no
   event behind: k frames sent together on a fault-free edge cost k
   deliveries, k acks and one timer fire, which finds every frame acked
   and leaves the timer disarmed. *)
let test_reliable_one_timer_per_edge () =
  let k = 8 in
  let sim = Engine.create () in
  let fab = make_fabric ~reliable:true sim 2 in
  Fabric.register fab ~node:0 (fun ~src:_ _ -> ());
  Fabric.register fab ~node:1 (fun ~src:_ _ -> ());
  for i = 1 to k do
    send fab ~src:0 ~dst:1 ~words:1 i
  done;
  ignore (Engine.run sim);
  Alcotest.(check int) "events" ((2 * k) + 1) (Engine.events_processed sim)

(* Retransmit instants: each unacked frame is resent 25 us after its
   last transmission, in sequence order within an instant, until frame
   #0 spends its 30 retries. *)
let test_reliable_retransmit_instants () =
  let sim = Engine.create () in
  let fab = dead_link sim in
  let resent = ref [] in
  let bus = Engine.probe sim in
  Dsm_obs.Probe.attach bus Dsm_obs.Probe.net (function
    | Dsm_obs.Probe.Retransmit { seq; _ } ->
        resent := (Dsm_obs.Probe.now bus, seq) :: !resent
    | _ -> ());
  send fab ~src:0 ~dst:1 ~words:1 7;
  Engine.schedule sim ~delay:10. (fun () -> send fab ~src:0 ~dst:1 ~words:1 8);
  gives_up sim;
  Alcotest.(check (float 0.)) "gave up at" 775. (Engine.now sim);
  Alcotest.(check (list (pair (float 0.) int)))
    "resent (time, seq)"
    (List.concat
       (List.init 30 (fun j ->
            let t = 25. *. float_of_int (j + 1) in
            [ (t, 0); (t +. 10., 1) ])))
    (List.rev !resent)

(* A fabric reset mid-run replays the same traffic exactly as a fresh
   one. The first run stops after 103 events, at t=28.39 us, just past
   the first retransmit timeouts, so sequence numbers, unacked and
   held-back frames, floors and counters are all in use when it is
   reset. *)
let test_reliable_reset_is_fresh () =
  let plan = Fault.of_string "dup=0.3,drop=0.3,reorder=0.3" in
  let build () =
    let sim = Engine.create ~seed:9 () in
    let fab = make_fabric ~faults:plan ~reliable:true sim 3 in
    let faults = fault_counts sim in
    let log = ref [] in
    for node = 0 to 2 do
      Fabric.register fab ~node (fun ~src i ->
          log := (Engine.now sim, src, node, i) :: !log)
    done;
    (sim, fab, log, faults)
  in
  let sends fab =
    for i = 0 to 19 do
      send fab ~src:(i mod 3) ~dst:((i + 1) mod 3) ~words:1 i;
      send fab ~src:((i + 2) mod 3) ~dst:(i mod 3) ~words:2 (100 + i)
    done
  in
  let traffic sim fab log (dropped, duplicated) =
    log := [];
    dropped := 0;
    duplicated := 0;
    sends fab;
    ignore (Engine.run sim);
    ( List.rev !log,
      [
        Fabric.messages_sent fab;
        Fabric.words_sent fab;
        Fabric.wire_words_sent fab;
        Fabric.clock_words_sent fab;
        !dropped;
        !duplicated;
        Fabric.retransmits fab;
      ] )
  in
  let sim, fab, log, faults = build () in
  let fresh_log, fresh_counts = traffic sim fab log faults in
  let sim', fab', log', faults' = build () in
  sends fab';
  ignore (Engine.run ~max_events:103 sim');
  Engine.reset ~seed:9 sim';
  Fabric.reset fab';
  let reset_log, reset_counts = traffic sim' fab' log' faults' in
  Alcotest.(check bool) "frames delivered" true (List.length fresh_log = 40);
  Alcotest.(check bool) "same deliveries" true (fresh_log = reset_log);
  Alcotest.(check (list int)) "same counters" fresh_counts reset_counts

let () =
  Alcotest.run "net"
    [
      ( "latency",
        [
          Alcotest.test_case "constant" `Quick test_latency_constant;
          Alcotest.test_case "linear" `Quick test_latency_linear;
          Alcotest.test_case "logp" `Quick test_latency_logp;
          Alcotest.test_case "monotone" `Quick test_latency_monotone_in_size;
          Alcotest.test_case "jitter" `Quick test_latency_jitter_adds;
          Alcotest.test_case "negative size" `Quick test_latency_negative_size;
          Alcotest.test_case "positive floor" `Quick test_latency_positive_even_at_zero;
          Alcotest.test_case "names" `Quick test_latency_names;
        ] );
      ( "topology",
        [
          Alcotest.test_case "full" `Quick test_topo_full;
          Alcotest.test_case "validate" `Quick test_topo_validate;
          Alcotest.test_case "out of range" `Quick test_topo_out_of_range;
        ] );
      ( "fabric",
        [
          Alcotest.test_case "delivers" `Quick test_fabric_delivers;
          Alcotest.test_case "latency applied" `Quick test_fabric_latency_applied;
          Alcotest.test_case "fifo ordering" `Quick test_fabric_fifo_ordering;
          Alcotest.test_case "no-fifo reorders" `Quick test_fabric_no_fifo_can_reorder;
          Alcotest.test_case "hops scale delay" `Quick test_fabric_hops_scale_delay;
          Alcotest.test_case "self send" `Quick test_fabric_self_send;
          Alcotest.test_case "counters" `Quick test_fabric_counters;
          Alcotest.test_case "double register" `Quick test_fabric_double_register;
          Alcotest.test_case "unregistered fails" `Quick test_fabric_unregistered_delivery_fails;
          Alcotest.test_case "floor far in time" `Quick test_fabric_floor_far_in_time;
        ] );
      ( "faults",
        [
          Alcotest.test_case "drop rate" `Quick test_fabric_drop_rate;
          Alcotest.test_case "duplicates" `Quick test_fabric_duplicates;
          Alcotest.test_case "bad probability" `Quick test_fabric_bad_probability;
        ] );
      ( "transport",
        [
          Alcotest.test_case "exactly once, in order" `Quick
            test_reliable_exactly_once_in_order;
          Alcotest.test_case "gives up" `Quick test_reliable_gives_up;
          Alcotest.test_case "one timer per edge" `Quick
            test_reliable_one_timer_per_edge;
          Alcotest.test_case "retransmit instants" `Quick
            test_reliable_retransmit_instants;
          Alcotest.test_case "reset is fresh" `Quick test_reliable_reset_is_fresh;
        ] );
    ]
