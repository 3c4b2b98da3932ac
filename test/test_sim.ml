(* Tests for dsm_sim: determinism, scheduling order, coroutine semantics. *)

open Dsm_sim

(* ---------- Prng ---------- *)

let test_prng_deterministic () =
  let a = Prng.create ~seed:42 and b = Prng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Prng.int a max_int) (Prng.int b max_int)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create ~seed:1 and b = Prng.create ~seed:2 in
  Alcotest.(check bool) "different streams" true
    (Prng.int a max_int <> Prng.int b max_int)

let test_prng_int_bounds () =
  let g = Prng.create ~seed:7 in
  for _ = 1 to 1000 do
    let x = Prng.int g 10 in
    Alcotest.(check bool) "in range" true (x >= 0 && x < 10)
  done;
  Alcotest.check_raises "bound 0"
    (Invalid_argument "Prng.int: bound must be positive") (fun () ->
      ignore (Prng.int g 0))

let test_prng_float_bounds () =
  let g = Prng.create ~seed:11 in
  for _ = 1 to 1000 do
    let x = Prng.float g 2.5 in
    Alcotest.(check bool) "in range" true (x >= 0. && x < 2.5)
  done

let test_prng_split_independent () =
  let g = Prng.create ~seed:3 in
  let h = Prng.split g in
  let xs = List.init 10 (fun _ -> Prng.int g max_int) in
  let ys = List.init 10 (fun _ -> Prng.int h max_int) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let test_prng_bernoulli_extremes () =
  let g = Prng.create ~seed:9 in
  for _ = 1 to 50 do
    Alcotest.(check bool) "p=1" true (Prng.bernoulli g ~p:1.0);
    Alcotest.(check bool) "p=0" false (Prng.bernoulli g ~p:0.0)
  done

let test_prng_exponential_positive () =
  let g = Prng.create ~seed:13 in
  for _ = 1 to 100 do
    Alcotest.(check bool) "positive" true (Prng.exponential g ~mean:2.0 > 0.)
  done

(* ---------- Heap ---------- *)

let test_heap_orders_by_time () =
  let h = Heap.create ~dummy:"" in
  Heap.add h ~time:3. ~seq:0 ~label:Label.unknown "c";
  Heap.add h ~time:1. ~seq:1 ~label:Label.unknown "a";
  Heap.add h ~time:2. ~seq:2 ~label:Label.unknown "b";
  let pop () =
    match Heap.pop h with Some (_, _, v) -> v | None -> "EMPTY"
  in
  let first = pop () in
  let second = pop () in
  let third = pop () in
  Alcotest.(check (list string)) "sorted" [ "a"; "b"; "c" ]
    [ first; second; third ]

let test_heap_ties_by_seq () =
  let h = Heap.create ~dummy:"" in
  Heap.add h ~time:1. ~seq:5 ~label:Label.unknown "second";
  Heap.add h ~time:1. ~seq:2 ~label:Label.unknown "first";
  let pop () =
    match Heap.pop h with Some (_, _, v) -> v | None -> "EMPTY"
  in
  let first = pop () in
  let second = pop () in
  Alcotest.(check (list string)) "fifo at same time" [ "first"; "second" ]
    [ first; second ]

let test_heap_stress_sorted_drain () =
  let h = Heap.create ~dummy:0 in
  let g = Prng.create ~seed:17 in
  for i = 0 to 999 do
    Heap.add h ~time:(Prng.float g 100.) ~seq:i ~label:Label.unknown i
  done;
  let last = ref neg_infinity in
  let ok = ref true in
  let rec drain () =
    match Heap.pop h with
    | None -> ()
    | Some (t, _, _) ->
        if t < !last then ok := false;
        last := t;
        drain ()
  in
  drain ();
  Alcotest.(check bool) "drained in order" true !ok;
  Alcotest.(check bool) "empty" true (Heap.is_empty h)

(* Values the heap gave back must not stay reachable through it: pop
   three (one by [pop_kth]), then clear two. The values are made and
   dropped in a function of their own, so only [h] and the weak table
   can still point at them when the collector runs. *)
let[@inline never] churn h w =
  let v i =
    let b = Bytes.make 8 'v' in
    Weak.set w i (Some b);
    b
  in
  Heap.add h ~time:1. ~seq:0 ~label:Label.unknown (v 0);
  Heap.add h ~time:2. ~seq:1 ~label:Label.unknown (v 1);
  Heap.add h ~time:2. ~seq:2 ~label:Label.unknown (v 2);
  ignore (Heap.pop h);
  ignore (Heap.pop_kth h 1);
  ignore (Heap.pop h);
  Heap.add h ~time:3. ~seq:3 ~label:Label.unknown (v 3);
  Heap.add h ~time:4. ~seq:4 ~label:Label.unknown (v 4);
  Heap.clear h

let test_heap_releases_dead_entries () =
  let h = Heap.create ~dummy:Bytes.empty in
  let w = Weak.create 5 in
  churn h w;
  Gc.full_major ();
  for i = 0 to 4 do
    Alcotest.(check bool) (Printf.sprintf "value %d collected" i) false
      (Weak.check w i)
  done;
  (* the cleared heap still works *)
  Heap.add h ~time:1. ~seq:5 ~label:Label.unknown
    (Bytes.of_string "x");
  Alcotest.(check (option string)) "reusable" (Some "x")
    (Option.map (fun (_, _, b) -> Bytes.to_string b) (Heap.pop h))

(* Property: random add / pop / pop_kth / ready_count / ready_view /
   clear sequences, with tied times and repeated seqs, give the same
   answers from the parallel-array heap as from the entry-record heap it
   replaced ([Heap_ref]). Every value is distinct, so a tie broken the
   other way shows. [Pop_min] drives [min_time] and [pop_min] against
   the reference's [pop]. *)
type heap_op =
  | H_add of float * int * int
  | H_pop
  | H_pop_min
  | H_pop_kth of int
  | H_ready_count
  | H_ready_view
  | H_clear

let show_heap_op = function
  | H_add (t, s, l) -> Printf.sprintf "add t=%g seq=%d label=%d" t s l
  | H_pop -> "pop"
  | H_pop_min -> "pop_min"
  | H_pop_kth k -> Printf.sprintf "pop_kth %d" k
  | H_ready_count -> "ready_count"
  | H_ready_view -> "ready_view"
  | H_clear -> "clear"

let arb_heap_ops =
  let open QCheck.Gen in
  let op =
    frequency
      [
        ( 6,
          map3
            (fun t s l -> H_add (float_of_int t /. 2., s, l))
            (int_range 0 4) (int_range 0 6) (int_range (-1) 3) );
        (2, return H_pop);
        (2, return H_pop_min);
        (2, map (fun k -> H_pop_kth k) (int_range (-1) 4));
        (1, return H_ready_count);
        (1, return H_ready_view);
        (1, return H_clear);
      ]
  in
  QCheck.make
    ~print:(fun ops -> String.concat "\n" (List.map show_heap_op ops))
    QCheck.Gen.(list_size (int_range 0 120) op)

let show_popped = function
  | None -> "none"
  | Some (t, s, v) -> Printf.sprintf "%g/%d/%d" t s v

let show_view view =
  String.concat " "
    (Array.to_list (Array.map (fun (s, l) -> Printf.sprintf "%d:%d" s l) view))

let prop_heap_matches_reference =
  QCheck.Test.make ~name:"heap matches the entry-record reference" ~count:500
    arb_heap_ops (fun ops ->
      let live = Heap.create ~dummy:(-1)
      and oracle = Heap_ref.create ~dummy:(-1) in
      let step i op =
        let answer =
          match op with
          | H_add (time, seq, label) ->
              Heap.add live ~time ~seq ~label i;
              Heap_ref.add oracle ~time ~seq ~label i;
              ("", "")
          | H_pop ->
              (show_popped (Heap.pop live), show_popped (Heap_ref.pop oracle))
          | H_pop_min ->
              let l =
                if Heap.is_empty live then "none"
                else
                  let time = Heap.min_time live in
                  let v = Heap.pop_min live in
                  Printf.sprintf "%g/%d" time v
              in
              let r =
                match Heap_ref.pop oracle with
                | None -> "none"
                | Some (time, _, v) -> Printf.sprintf "%g/%d" time v
              in
              (l, r)
          | H_pop_kth k ->
              ( show_popped (Heap.pop_kth live k),
                show_popped (Heap_ref.pop_kth oracle k) )
          | H_ready_count ->
              ( string_of_int (Heap.ready_count live),
                string_of_int (Heap_ref.ready_count oracle) )
          | H_ready_view ->
              ( show_view (Heap.ready_view live),
                show_view (Heap_ref.ready_view oracle) )
          | H_clear ->
              Heap.clear live;
              Heap_ref.clear oracle;
              ("", "")
        in
        let l, r = answer in
        let show answer empty =
          Printf.sprintf "%s -> %s empty=%b" (show_heap_op op) answer empty
        in
        (show l (Heap.is_empty live), show r (Heap_ref.is_empty oracle))
      in
      let both = List.mapi step ops in
      (* drain what is left *)
      let rec drain acc =
        match (Heap.pop live, Heap_ref.pop oracle) with
        | None, None -> List.rev acc
        | l, r -> drain ((show_popped l, show_popped r) :: acc)
      in
      let both = both @ drain [] in
      if List.for_all (fun (l, r) -> l = r) both then true
      else
        QCheck.Test.fail_reportf "live:\n%s\nreference:\n%s"
          (String.concat "\n" (List.map fst both))
          (String.concat "\n" (List.map snd both)))

(* ---------- Int_tbl ---------- *)

(* Property: random replace / remove / find / clear sequences over keys
   shaped like the message path's (packed granules, edges, negative
   ints) answer like a stdlib [Hashtbl] used as a map, through growth
   and clears. *)
type tbl_op = T_replace of int * int | T_remove of int | T_find of int | T_clear

let arb_tbl_ops =
  let open QCheck.Gen in
  let key =
    oneof
      [
        map2
          (fun off len -> (off lsl 21) lor len)
          (int_range 0 300) (int_range 1 3);
        map2
          (fun src dst -> (src * 1024) + dst)
          (int_range 0 40) (int_range 0 40);
        int_range (-50) 50;
      ]
  in
  let op =
    frequency
      [
        (6, map2 (fun k v -> T_replace (k, v)) key small_nat);
        (2, map (fun k -> T_remove k) key);
        (3, map (fun k -> T_find k) key);
        (1, return T_clear);
      ]
  in
  QCheck.make
    ~print:(fun ops ->
      String.concat "\n"
        (List.map
           (function
             | T_replace (k, v) -> Printf.sprintf "replace %d %d" k v
             | T_remove k -> Printf.sprintf "remove %d" k
             | T_find k -> Printf.sprintf "find %d" k
             | T_clear -> "clear")
           ops))
    (list_size (int_range 0 400) op)

let prop_int_tbl_matches_hashtbl =
  QCheck.Test.make ~name:"int table matches Hashtbl" ~count:300 arb_tbl_ops
    (fun ops ->
      let t = Int_tbl.create 4 and model = Hashtbl.create 4 in
      let bindings () =
        List.sort compare (Int_tbl.fold (fun k v acc -> (k, v) :: acc) t [])
      and model_bindings () =
        List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) model [])
      in
      List.for_all
        (fun op ->
          let answer =
            match op with
            | T_replace (k, v) ->
                Int_tbl.replace t k v;
                Hashtbl.replace model k v;
                true
            | T_remove k ->
                Int_tbl.remove t k;
                Hashtbl.remove model k;
                true
            | T_find k ->
                (match Int_tbl.find t k with
                | v -> Hashtbl.find_opt model k = Some v
                | exception Not_found -> not (Hashtbl.mem model k))
            | T_clear ->
                Int_tbl.clear t;
                Hashtbl.reset model;
                true
          in
          answer && Int_tbl.length t = Hashtbl.length model)
        ops
      && bindings () = model_bindings ())

(* ---------- Engine ---------- *)

let test_engine_time_order () =
  let sim = Engine.create () in
  let log = ref [] in
  Engine.schedule sim ~delay:2.0 (fun () -> log := "late" :: !log);
  Engine.schedule sim ~delay:1.0 (fun () -> log := "early" :: !log);
  let outcome = Engine.run sim in
  Alcotest.(check bool) "completed" true (outcome = Engine.Completed);
  Alcotest.(check (list string)) "order" [ "early"; "late" ] (List.rev !log)

let test_engine_now_advances () =
  let sim = Engine.create () in
  let seen = ref 0. in
  Engine.schedule sim ~delay:5.5 (fun () -> seen := Engine.now sim);
  ignore (Engine.run sim);
  Alcotest.(check (float 1e-9)) "time at event" 5.5 !seen

let test_engine_spawn_sleep () =
  let sim = Engine.create () in
  let wake = ref 0. in
  Engine.spawn sim (fun () ->
      Engine.sleep sim 3.0;
      wake := Engine.now sim);
  let outcome = Engine.run sim in
  Alcotest.(check bool) "completed" true (outcome = Engine.Completed);
  Alcotest.(check (float 1e-9)) "woke at 3" 3.0 !wake

let test_engine_yield_interleaves () =
  let sim = Engine.create () in
  let log = ref [] in
  let proc name =
    Engine.spawn sim (fun () ->
        log := (name ^ "1") :: !log;
        (* a zero sleep yields to the other ready process *)
        Engine.sleep sim 0.;
        log := (name ^ "2") :: !log)
  in
  proc "a";
  proc "b";
  ignore (Engine.run sim);
  Alcotest.(check (list string)) "interleaved" [ "a1"; "b1"; "a2"; "b2" ]
    (List.rev !log)

let test_engine_blocked_detection () =
  let sim = Engine.create () in
  let iv : unit Ivar.t = Ivar.create () in
  Engine.spawn sim (fun () -> Ivar.read sim iv);
  let outcome = Engine.run sim in
  Alcotest.(check bool) "blocked 1" true (outcome = Engine.Blocked 1)

let test_engine_process_failure () =
  let sim = Engine.create () in
  Engine.spawn sim ~name:"boom" (fun () -> failwith "kaboom");
  Alcotest.check_raises "wrapped"
    (Engine.Process_failure ("boom", Failure "kaboom")) (fun () ->
      ignore (Engine.run sim))

(* A process that raises after resuming from an await must not wedge the
   heap or the lock table: waiters granted by the same release still run,
   and a second [run] on the same engine drains cleanly instead of
   deadlocking. *)
let test_engine_failure_spares_siblings () =
  let module L = Dsm_memory.Lock_table in
  let sim = Engine.create () in
  let locks = L.create () in
  let survivor_done = ref false in
  Engine.spawn sim ~name:"holder" (fun () ->
      let held = ref None in
      L.acquire locks ~offset:0 ~len:10 (fun l -> held := Some l);
      Engine.sleep sim 5.0;
      match !held with
      | Some l -> L.release locks l
      | None -> Alcotest.fail "holder never granted");
  (* queued behind holder; granted at t=5, then blows up *)
  Engine.spawn sim ~name:"crasher" (fun () ->
      Engine.sleep sim 1.0;
      let got = Ivar.create () in
      L.acquire locks ~offset:0 ~len:2 (fun l ->
          Ivar.fill ~label:Label.unknown sim got l);
      let l = Ivar.read sim got in
      L.release locks l;
      failwith "crash mid-run");
  (* disjoint range, but also queued behind holder's [0,10) *)
  Engine.spawn sim ~name:"survivor" (fun () ->
      Engine.sleep sim 2.0;
      let got = Ivar.create () in
      L.acquire locks ~offset:5 ~len:2 (fun l ->
          Ivar.fill ~label:Label.unknown sim got l);
      let l = Ivar.read sim got in
      Engine.sleep sim 1.0;
      L.release locks l;
      survivor_done := true);
  (match Engine.run sim with
  | exception Engine.Process_failure (name, Failure _) ->
      Alcotest.(check string) "crasher failed" "crasher" name
  | _ -> Alcotest.fail "expected crasher's Process_failure");
  (* same engine, same heap: the leftover events must still drain *)
  Alcotest.(check bool) "second run completes" true
    (Engine.run sim = Engine.Completed);
  Alcotest.(check bool) "survivor finished" true !survivor_done;
  Alcotest.(check int) "no held locks" 0 (L.held_count locks);
  Alcotest.(check int) "no queued locks" 0 (L.queued_count locks)

(* The suspension contract. A resumer is one-shot: calling it a second
   time fails with the process's name, whether the process has finished
   or is suspended again. *)
let test_engine_resumed_twice () =
  let sim = Engine.create () in
  let saved = ref None and got = ref [] and errors = ref [] in
  Engine.spawn sim ~name:"twice" (fun () ->
      got := Engine.await sim (fun resume -> saved := Some resume) :: !got);
  let resume_again () =
    match !saved with
    | None -> Alcotest.fail "register never ran"
    | Some resume -> (
        try resume 2 with Failure msg -> errors := msg :: !errors)
  in
  Engine.schedule sim ~delay:1.0 resume_again;
  Engine.schedule sim ~delay:2.0 resume_again;
  Alcotest.(check bool) "completed" true (Engine.run sim = Engine.Completed);
  Alcotest.(check (list int)) "resumed once" [ 2 ] !got;
  Alcotest.(check (list string)) "second resume fails"
    [ "Engine: process \"twice\" resumed twice" ]
    !errors;
  (* a drained engine runs to [Blocked k] while [k] processes live *)
  Alcotest.(check bool) "none live" true (Engine.run sim = Engine.Completed)

(* A register function that raises before handing off its resumer
   delivers the exception at the await point: a process that catches it
   carries on, one that does not fails, and either way [live] settles. *)
let test_engine_register_raises () =
  let sim = Engine.create () in
  let caught = ref "" in
  Engine.spawn sim ~name:"catcher" (fun () ->
      (match Engine.await sim (fun _ -> failwith "no resumer") with
      | () -> Alcotest.fail "await returned"
      | exception Failure msg -> caught := msg);
      Engine.sleep sim 1.0);
  Alcotest.(check bool) "catcher completes" true
    (Engine.run sim = Engine.Completed);
  Alcotest.(check string) "raised at the await" "no resumer" !caught;
  Alcotest.(check bool) "catcher not live" true
    (Engine.run sim = Engine.Completed);
  Engine.spawn sim ~name:"faller" (fun () ->
      Engine.await sim (fun _ -> failwith "no resumer"));
  Alcotest.check_raises "faller fails"
    (Engine.Process_failure ("faller", Failure "no resumer")) (fun () ->
      ignore (Engine.run sim));
  Alcotest.(check bool) "drained, faller not live" true
    (Engine.run sim = Engine.Completed)

(* A register function that resumes its process and then raises cannot
   hand the exception to the process, which has already run on: the
   exception leaves the event that ran the register function. *)
let test_engine_register_resumes_then_raises () =
  let sim = Engine.create () in
  let got = ref 0 in
  Engine.spawn sim ~name:"early" (fun () ->
      got :=
        Engine.await sim (fun resume ->
            resume 7;
            failwith "after resume"));
  Alcotest.check_raises "re-raised" (Failure "after resume") (fun () ->
      ignore (Engine.run sim));
  Alcotest.(check int) "resumed with the value" 7 !got;
  Alcotest.(check bool) "drained, none live" true
    (Engine.run sim = Engine.Completed)

let test_engine_event_limit () =
  let sim = Engine.create () in
  let rec forever () =
    Engine.sleep sim 1.0;
    forever ()
  in
  Engine.spawn sim forever;
  let outcome = Engine.run ~max_events:10 sim in
  Alcotest.(check bool) "limited" true (outcome = Engine.Event_limit_reached)

(* A run stopped at an event budget leaves the next event queued: a
   second run resumes with it and misses no wake. A budget counts every
   event the engine has fired: the first run's 6 are the process start
   and five wakes, the second's 8 add two more wakes. *)
let test_engine_until_resumes () =
  let sim = Engine.create () in
  let count = ref 0 in
  let rec tickloop () =
    Engine.sleep sim 1.0;
    incr count;
    tickloop ()
  in
  Engine.spawn sim tickloop;
  ignore (Engine.run ~max_events:6 sim);
  Alcotest.(check int) "five wakes" 5 !count;
  let outcome = Engine.run ~max_events:8 sim in
  Alcotest.(check bool) "budget" true (outcome = Engine.Event_limit_reached);
  Alcotest.(check int) "seven wakes" 7 !count;
  Alcotest.(check (float 0.)) "now at the last wake" 7.0 (Engine.now sim)

let test_engine_negative_delay_rejected () =
  let sim = Engine.create () in
  Alcotest.check_raises "negative"
    (Invalid_argument "Engine.schedule: negative delay") (fun () ->
      Engine.schedule sim ~delay:(-1.0) (fun () -> ()))

let test_engine_deterministic_trace () =
  let run_once () =
    let sim = Engine.create ~seed:99 () in
    let g = Prng.split (Engine.rng sim) in
    let log = ref [] in
    for i = 0 to 20 do
      Engine.schedule sim ~delay:(Prng.float g 10.) (fun () ->
          log := (i, Engine.now sim) :: !log)
    done;
    ignore (Engine.run sim);
    List.rev !log
  in
  let a = run_once () and b = run_once () in
  Alcotest.(check bool) "identical traces" true (a = b)

(* Processes spawned and not yet finished are live: two that suspend
   forever leave the run [Blocked 2], and once they finish none is. *)
let test_engine_live_processes () =
  let sim = Engine.create () in
  let resumers = ref [] in
  let park () = Engine.await sim (fun resume -> resumers := resume :: !resumers) in
  Engine.spawn sim park;
  Engine.spawn sim park;
  Alcotest.(check bool) "two live" true (Engine.run sim = Engine.Blocked 2);
  List.iter (fun resume -> Engine.schedule sim (fun () -> resume ())) !resumers;
  Alcotest.(check bool) "none live" true (Engine.run sim = Engine.Completed)

let test_engine_nested_spawn () =
  let sim = Engine.create () in
  let log = ref [] in
  Engine.spawn sim (fun () ->
      log := "parent" :: !log;
      Engine.spawn sim (fun () ->
          Engine.sleep sim 1.0;
          log := "child" :: !log);
      Engine.sleep sim 2.0;
      log := "parent-end" :: !log);
  ignore (Engine.run sim);
  Alcotest.(check (list string)) "nesting works"
    [ "parent"; "child"; "parent-end" ]
    (List.rev !log)

let test_engine_schedule_at_past_rejected () =
  let sim = Engine.create () in
  Engine.schedule sim ~delay:5.0 (fun () ->
      Alcotest.check_raises "past"
        (Invalid_argument "Engine.schedule_at: time in the past") (fun () ->
          Engine.schedule_at sim ~at:1.0 ~label:Label.unknown (fun () -> ())));
  ignore (Engine.run sim)

let test_engine_counts_events () =
  let sim = Engine.create () in
  for _ = 1 to 7 do
    Engine.schedule sim ~delay:1.0 (fun () -> ())
  done;
  ignore (Engine.run sim);
  Alcotest.(check int) "seven events" 7 (Engine.events_processed sim)

(* A choice point happens at the instant its chosen event fires: a sink
   of the engine class reads the bus's clock at each [Engine_choice],
   the chosen event reads [Engine.now] when it fires, and the two agree,
   for ties at later instants (the heap) as for ties at [now] (the
   FIFO). *)
let test_engine_choice_reads_firing_time () =
  let module Probe = Dsm_obs.Probe in
  let sim = Engine.create () in
  let bus = Engine.probe sim in
  let log = ref [] in
  Probe.attach bus Probe.engine (function
    | Probe.Engine_choice _ -> log := `Choice (Probe.now bus) :: !log
    | _ -> ());
  Engine.set_chooser sim (Some (fun ready -> ready - 1));
  let fire () = log := `Fire (Engine.now sim) :: !log in
  for i = 1 to 3 do
    for _ = 1 to 2 do
      Engine.schedule sim ~delay:(float_of_int i) (fun () ->
          fire ();
          Engine.schedule sim fire;
          Engine.schedule sim fire)
    done
  done;
  ignore (Engine.run sim);
  let rec pairs choices = function
    | `Choice t :: `Fire t' :: rest ->
        Alcotest.(check (float 0.)) "choice read the firing instant" t' t;
        pairs (choices + 1) rest
    | `Choice _ :: _ -> Alcotest.fail "a choice with no event fired after it"
    | `Fire _ :: rest -> pairs choices rest
    | [] -> choices
  in
  Alcotest.(check bool) "ties became choices" true
    (pairs 0 (List.rev !log) >= 6)

let test_engine_sleep_negative_rejected () =
  let sim = Engine.create () in
  Engine.spawn sim (fun () ->
      Alcotest.check_raises "negative"
        (Invalid_argument "Engine.sleep: negative duration") (fun () ->
          Engine.sleep sim (-1.0)));
  ignore (Engine.run sim)

(* Property: random event programs fire in the same order on the live
   engine as on the single-heap loop it replaced ([Engine_ref]). Each
   event, the [j]-th scheduled since the last reset (so its seq is [j]),
   logs [(now, j, label)] and schedules children by plan [j mod
   plans]: at [now] (the FIFO), or some half-units later, so that events
   scheduled at different instants tie. Phases schedule from outside,
   run to an event budget (possibly stopping inside an instant with both
   the FIFO and the heap's entries at [now] pending) or to the end, and
   reset mid-run. With a chooser, its picks (out-of-range ones too)
   come from a seeded generator, and every choice point's ready set,
   ready count and pick are logged. *)
module type ENGINE = sig
  type t

  val create : unit -> t
  val reset : t -> unit
  val now : t -> float
  val schedule_at : t -> at:float -> label:Label.t -> (unit -> unit) -> unit
  val run : ?max_events:int -> t -> Engine.outcome
  val set_chooser : t -> (int -> int) option -> unit
  val set_choice_view : t -> ((int * Label.t) array -> unit) option -> unit
  val events_processed : t -> int
end

module Live_engine = struct
  include Engine

  let create () = create ()
  let reset sim = reset sim
end

(* [half] half-units after the scheduling instant; 0 is [now]. *)
type child = { half : int; label : Label.t }

type plan = { children : child list }

type phase =
  | P_schedule of child list
  | P_run of int option  (* event budget *)
  | P_reset

type engine_program = {
  plans : plan array;
  chooser : int option;  (* seed of the pick generator *)
  phases : phase list;
}

let show_children cs =
  String.concat " "
    (List.map (fun c -> Printf.sprintf "+%d:%d" c.half c.label) cs)

let show_engine_program p =
  String.concat "\n"
    ((match p.chooser with
     | None -> "no chooser"
     | Some s -> Printf.sprintf "chooser seed %d" s)
     :: Array.to_list
          (Array.mapi
             (fun i pl ->
               Printf.sprintf "plan %d: %s" i (show_children pl.children))
             p.plans)
    @ List.map
        (function
          | P_schedule cs -> "schedule " ^ show_children cs
          | P_run m ->
              Printf.sprintf "run max_events=%s"
                (Option.fold ~none:"-" ~some:string_of_int m)
          | P_reset -> "reset")
        p.phases)

let arb_engine_program =
  let open QCheck.Gen in
  let child =
    map2
      (fun half label -> { half; label })
      (frequency [ (3, return 0); (2, int_range 1 2); (1, int_range 3 6) ])
      (int_range (-1) 3)
  in
  let plan = map (fun children -> { children }) (list_size (int_range 0 3) child) in
  let phase =
    frequency
      [
        (2, map (fun cs -> P_schedule cs) (list_size (int_range 1 4) child));
        (3, map (fun m -> P_run m) (opt (int_range 0 40)));
        (1, return P_reset);
      ]
  in
  let program =
    map3
      (fun plans chooser (first, phases) ->
        { plans = Array.of_list plans; chooser; phases = first :: phases })
      (list_size (int_range 1 6) plan)
      (opt small_nat)
      (pair
         (map (fun cs -> P_schedule cs) (list_size (int_range 1 4) child))
         (list_size (int_range 1 8) phase))
  in
  QCheck.make ~print:show_engine_program program

(* Every epoch (between resets) schedules at most this many events, so
   each program ends. *)
let engine_epoch_events = 150

let run_engine_program (module E : ENGINE) p =
  let sim = E.create () in
  let log = ref [] in
  let note fmt = Printf.ksprintf (fun s -> log := s :: !log) fmt in
  let scheduled = ref 0 in
  let rec schedule (c : child) =
    if !scheduled < engine_epoch_events then begin
      let j = !scheduled in
      incr scheduled;
      let at = E.now sim +. (float_of_int c.half /. 2.) in
      E.schedule_at sim ~at ~label:c.label (fun () ->
          note "fire %g #%d label %d" (E.now sim) j c.label;
          let plan = p.plans.(j mod Array.length p.plans) in
          List.iter schedule plan.children)
    end
  in
  let install () =
    match p.chooser with
    | None -> ()
    | Some seed ->
        let g = Prng.create ~seed in
        E.set_chooser sim
          (Some
             (fun ready ->
               let k = Prng.int g (ready + 2) - 1 in
               note "choose %d of %d" k ready;
               k));
        E.set_choice_view sim
          (Some
             (fun view ->
               note "ready %s"
                 (String.concat " "
                    (Array.to_list
                       (Array.map
                          (fun (s, l) -> Printf.sprintf "%d:%d" s l)
                          view)))))
  in
  install ();
  List.iter
    (function
      | P_schedule cs -> List.iter schedule cs
      | P_run max_events ->
          let outcome =
            match E.run ?max_events sim with
            | Engine.Completed -> "completed"
            | Engine.Blocked k -> Printf.sprintf "blocked %d" k
            | Engine.Event_limit_reached -> "event limit"
            | Engine.Time_limit_reached | Engine.Stopped -> "never produced"
          in
          note "run -> %s at %g after %d events" outcome (E.now sim)
            (E.events_processed sim)
      | P_reset ->
          E.reset sim;
          scheduled := 0;
          install ();
          note "reset")
    p.phases;
  let outcome = match E.run sim with Engine.Completed -> "completed" | _ -> "other" in
  note "drain -> %s at %g after %d events" outcome (E.now sim)
    (E.events_processed sim);
  List.rev !log

let prop_engine_matches_reference =
  QCheck.Test.make ~name:"engine order matches the single-heap reference"
    ~count:500 arb_engine_program (fun p ->
      let live = run_engine_program (module Live_engine) p
      and oracle = run_engine_program (module Engine_ref) p in
      if live = oracle then true
      else
        QCheck.Test.fail_reportf "live:\n%s\nreference:\n%s"
          (String.concat "\n" live) (String.concat "\n" oracle))

(* ---------- Ivar ---------- *)

let test_ivar_fill_then_read () =
  let sim = Engine.create () in
  let iv = Ivar.create () in
  let got = ref 0 in
  Ivar.fill ~label:Label.unknown sim iv 42;
  Engine.spawn sim (fun () -> got := Ivar.read sim iv);
  ignore (Engine.run sim);
  Alcotest.(check int) "read value" 42 !got

let test_ivar_read_then_fill () =
  let sim = Engine.create () in
  let iv = Ivar.create () in
  let got = ref 0 and fill_time = ref 0. in
  Engine.spawn sim (fun () ->
      got := Ivar.read sim iv;
      fill_time := Engine.now sim);
  Engine.schedule sim ~delay:4.0 (fun () ->
      Ivar.fill ~label:Label.unknown sim iv 7);
  ignore (Engine.run sim);
  Alcotest.(check int) "read value" 7 !got;
  Alcotest.(check (float 1e-9)) "resumed at fill" 4.0 !fill_time

let test_ivar_multiple_waiters_in_order () =
  let sim = Engine.create () in
  let iv = Ivar.create () in
  let log = ref [] in
  let reader name =
    Engine.spawn sim (fun () ->
        ignore (Ivar.read sim iv);
        log := name :: !log)
  in
  reader "a";
  reader "b";
  reader "c";
  Engine.schedule sim ~delay:1.0 (fun () ->
      Ivar.fill ~label:Label.unknown sim iv ());
  ignore (Engine.run sim);
  Alcotest.(check (list string)) "registration order" [ "a"; "b"; "c" ]
    (List.rev !log)

let test_ivar_double_fill () =
  let sim = Engine.create () in
  let iv = Ivar.create () in
  Ivar.fill ~label:Label.unknown sim iv 1;
  Alcotest.check_raises "double" (Failure "Ivar.fill: already filled")
    (fun () -> Ivar.fill ~label:Label.unknown sim iv 2)

(* An ivar's contents and its waiters, seen from the run: a reader of an
   empty ivar stays suspended, so the run ends [Blocked 1]; the fill
   resumes it with the value. *)
let test_ivar_peek_waiters () =
  let sim = Engine.create () in
  let iv = Ivar.create () in
  let got = ref None in
  Engine.spawn sim (fun () -> got := Some (Ivar.read sim iv));
  Alcotest.(check bool) "one waiter" true (Engine.run sim = Engine.Blocked 1);
  Alcotest.(check (option int)) "empty" None !got;
  Ivar.fill ~label:Label.unknown sim iv 5;
  Alcotest.(check bool) "resumed" true (Engine.run sim = Engine.Completed);
  Alcotest.(check (option int)) "filled" (Some 5) !got

(* Property: under random reader spawn times and fills (the second one
   fails), the live ivar behaves like the list-based reference: same
   values, same resume order at the same instants, the same readers
   left waiting, and the same ready sets (seqs and labels) at every
   choice point. *)
module type IVAR = sig
  type 'a t

  val create : unit -> 'a t
  val fill : label:Label.t -> Engine.t -> 'a t -> 'a -> unit
  val read : Engine.t -> 'a t -> 'a
end

type ivar_op =
  | I_reader of float * int  (* spawn time, reads in a row *)
  | I_fill of float * int * Label.t option

let show_ivar_op = function
  | I_reader (t, k) -> Printf.sprintf "reader at %g reads %d" t k
  | I_fill (t, v, l) ->
      Printf.sprintf "fill at %g with %d label %s" t v
        (match l with None -> "-" | Some l -> string_of_int l)

let arb_ivar_ops =
  let open QCheck.Gen in
  let time = map (fun t -> float_of_int t /. 2.) (int_range 0 6) in
  let op =
    frequency
      [
        (5, map2 (fun t k -> I_reader (t, k)) time (int_range 1 2));
        ( 2,
          map3
            (fun t v l -> I_fill (t, v, l))
            time small_nat
            (opt (map2 (fun node origin -> Label.v ~node ~origin)
                    (int_range 0 3) (int_range 0 3))) );
      ]
  in
  QCheck.make
    ~print:(fun ops -> String.concat "\n" (List.map show_ivar_op ops))
    (list_size (int_range 0 25) op)

let run_ivar_ops (module I : IVAR) ops =
  let sim = Engine.create () in
  let iv : int I.t = I.create () in
  let log = ref [] in
  let note fmt =
    Printf.ksprintf
      (fun s -> log := Printf.sprintf "%g %s" (Engine.now sim) s :: !log)
      fmt
  in
  Engine.set_chooser sim (Some (fun _ -> 0));
  Engine.set_choice_view sim
    (Some
       (fun ready ->
         note "ready %s"
           (String.concat " "
              (Array.to_list
                 (Array.map (fun (s, l) -> Printf.sprintf "%d:%d" s l) ready)))));
  List.iteri
    (fun i op ->
      match op with
      | I_reader (delay, k) ->
          Engine.schedule sim ~delay (fun () ->
              Engine.spawn sim ~name:(Printf.sprintf "r%d" i) (fun () ->
                  for j = 1 to k do
                    note "r%d read %d got %d" i j (I.read sim iv)
                  done))
      | I_fill (delay, v, label) ->
          Engine.schedule sim ~delay (fun () ->
              let label = Option.value label ~default:Label.unknown in
              match I.fill ~label sim iv v with
              | () -> note "fill %d" v
              | exception Failure msg -> note "fill %d failed: %s" v msg))
    ops;
  let outcome =
    match Engine.run sim with
    | Engine.Completed -> "completed"
    | Engine.Blocked k -> Printf.sprintf "blocked %d" k
    | _ -> "other"
  in
  List.rev
    (Printf.sprintf "%s, %d events" outcome (Engine.events_processed sim)
    :: !log)

let prop_ivar_matches_reference =
  QCheck.Test.make ~name:"ivar matches the list-based reference" ~count:500
    arb_ivar_ops (fun ops ->
      let live = run_ivar_ops (module Ivar) ops
      and oracle = run_ivar_ops (module Ivar_ref) ops in
      if live = oracle then true
      else
        QCheck.Test.fail_reportf "live:\n%s\nreference:\n%s"
          (String.concat "\n" live) (String.concat "\n" oracle))

let () =
  Alcotest.run "sim"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
          Alcotest.test_case "int bounds" `Quick test_prng_int_bounds;
          Alcotest.test_case "float bounds" `Quick test_prng_float_bounds;
          Alcotest.test_case "split" `Quick test_prng_split_independent;
          Alcotest.test_case "bernoulli" `Quick test_prng_bernoulli_extremes;
          Alcotest.test_case "exponential" `Quick test_prng_exponential_positive;
        ] );
      ( "heap",
        [
          Alcotest.test_case "time order" `Quick test_heap_orders_by_time;
          Alcotest.test_case "tie by seq" `Quick test_heap_ties_by_seq;
          Alcotest.test_case "stress drain" `Quick test_heap_stress_sorted_drain;
          Alcotest.test_case "releases dead entries" `Quick
            test_heap_releases_dead_entries;
          QCheck_alcotest.to_alcotest prop_heap_matches_reference;
        ] );
      ( "int-table",
        [ QCheck_alcotest.to_alcotest prop_int_tbl_matches_hashtbl ] );
      ( "engine",
        [
          Alcotest.test_case "time order" `Quick test_engine_time_order;
          Alcotest.test_case "now advances" `Quick test_engine_now_advances;
          Alcotest.test_case "spawn+sleep" `Quick test_engine_spawn_sleep;
          Alcotest.test_case "yield interleaves" `Quick test_engine_yield_interleaves;
          Alcotest.test_case "blocked detection" `Quick test_engine_blocked_detection;
          Alcotest.test_case "process failure" `Quick test_engine_process_failure;
          Alcotest.test_case "failure spares siblings" `Quick
            test_engine_failure_spares_siblings;
          Alcotest.test_case "resumed twice" `Quick test_engine_resumed_twice;
          Alcotest.test_case "register raises" `Quick
            test_engine_register_raises;
          Alcotest.test_case "register resumes then raises" `Quick
            test_engine_register_resumes_then_raises;
          Alcotest.test_case "event limit" `Quick test_engine_event_limit;
          Alcotest.test_case "until resumes" `Quick test_engine_until_resumes;
          Alcotest.test_case "negative delay" `Quick test_engine_negative_delay_rejected;
          Alcotest.test_case "deterministic trace" `Quick test_engine_deterministic_trace;
          Alcotest.test_case "live processes" `Quick test_engine_live_processes;
          Alcotest.test_case "nested spawn" `Quick test_engine_nested_spawn;
          Alcotest.test_case "schedule_at past" `Quick test_engine_schedule_at_past_rejected;
          Alcotest.test_case "event count" `Quick test_engine_counts_events;
          Alcotest.test_case "negative sleep" `Quick test_engine_sleep_negative_rejected;
          Alcotest.test_case "choice at the firing instant" `Quick
            test_engine_choice_reads_firing_time;
          QCheck_alcotest.to_alcotest prop_engine_matches_reference;
        ] );
      ( "ivar",
        [
          Alcotest.test_case "fill then read" `Quick test_ivar_fill_then_read;
          Alcotest.test_case "read then fill" `Quick test_ivar_read_then_fill;
          Alcotest.test_case "waiter order" `Quick test_ivar_multiple_waiters_in_order;
          Alcotest.test_case "double fill" `Quick test_ivar_double_fill;
          Alcotest.test_case "peek/waiters" `Quick test_ivar_peek_waiters;
          QCheck_alcotest.to_alcotest prop_ivar_matches_reference;
        ] );
    ]
