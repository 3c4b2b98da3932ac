(* Tests for dsm_memory: addressing, segments, allocation, range locks. *)

open Dsm_memory

(* ---------- Addr ---------- *)

let reg ?(pid = 0) ?(space = Addr.Public) offset len =
  Addr.region ~pid ~space ~offset ~len

let test_addr_smart_constructors () =
  Alcotest.check_raises "negative pid"
    (Invalid_argument "Addr.global: negative pid") (fun () ->
      ignore (Addr.global ~pid:(-1) ~space:Addr.Public ~offset:0));
  Alcotest.check_raises "empty region"
    (Invalid_argument "Addr.region: empty region") (fun () ->
      ignore (reg 0 0))

let test_addr_overlap () =
  Alcotest.(check bool) "overlapping" true (Addr.overlap (reg 0 10) (reg 5 10));
  Alcotest.(check bool) "adjacent" false (Addr.overlap (reg 0 10) (reg 10 5));
  Alcotest.(check bool) "nested" true (Addr.overlap (reg 0 10) (reg 3 2));
  Alcotest.(check bool) "different pid" false
    (Addr.overlap (reg ~pid:0 0 10) (reg ~pid:1 0 10));
  Alcotest.(check bool) "different space" false
    (Addr.overlap (reg ~space:Addr.Public 0 10) (reg ~space:Addr.Private 0 10))

let test_addr_pp () =
  Alcotest.(check string) "word" "P2.pub[16]"
    (Addr.to_string (reg ~pid:2 16 1));
  Alcotest.(check string) "range" "P2.pub[16..23]"
    (Addr.to_string (reg ~pid:2 16 8))

(* ---------- Segment ---------- *)

let test_segment_read_write () =
  let s = Segment.create ~words:8 in
  Segment.write s ~offset:3 42;
  Alcotest.(check int) "read back" 42 (Segment.read s ~offset:3);
  Alcotest.(check int) "zero init" 0 (Segment.read s ~offset:0)

let test_segment_bounds () =
  let s = Segment.create ~words:4 in
  Alcotest.check_raises "oob read"
    (Invalid_argument "Segment.read: [4..+1) outside segment of 4 words")
    (fun () -> ignore (Segment.read s ~offset:4));
  Alcotest.check_raises "oob block"
    (Invalid_argument
       "Segment.read_block: [2..+3) outside segment of 4 words") (fun () ->
      ignore (Segment.read_block s ~offset:2 ~len:3))

let test_segment_block_ops () =
  let s = Segment.create ~words:8 in
  Segment.write_block s ~offset:2 [| 1; 2; 3 |];
  Alcotest.(check (array int)) "roundtrip" [| 1; 2; 3 |]
    (Segment.read_block s ~offset:2 ~len:3);
  Segment.fill s ~offset:0 ~len:2 9;
  Alcotest.(check (array int)) "fill" [| 9; 9 |]
    (Segment.read_block s ~offset:0 ~len:2)

(* ---------- Allocator ---------- *)

let test_allocator_bump () =
  let a = Allocator.create ~words:100 in
  let x = Allocator.alloc a ~len:10 () in
  let y = Allocator.alloc a ~len:5 () in
  Alcotest.(check int) "first at 0" 0 x;
  Alcotest.(check int) "second after first" 10 y;
  Alcotest.(check int) "allocated" 15 (Allocator.allocated a)

let test_allocator_exhaustion () =
  let a = Allocator.create ~words:8 in
  ignore (Allocator.alloc a ~len:8 ());
  Alcotest.check_raises "oom"
    (Allocator.Exhausted { capacity = 8; used = 8; want = 1 })
    (fun () -> ignore (Allocator.alloc a ~len:1 ()))

let test_allocator_names () =
  let a = Allocator.create ~words:100 in
  ignore (Allocator.alloc a ~name:"x" ~len:4 ());
  ignore (Allocator.alloc a ~name:"y" ~len:2 ());
  Alcotest.(check (option (pair int int))) "lookup x" (Some (0, 4))
    (Allocator.lookup a "x");
  Alcotest.(check (option (pair int int))) "lookup y" (Some (4, 2))
    (Allocator.lookup a "y");
  Alcotest.(check (option (pair int int))) "missing" None
    (Allocator.lookup a "z");
  Alcotest.check_raises "duplicate"
    (Failure "Allocator.alloc: name \"x\" already bound") (fun () ->
      ignore (Allocator.alloc a ~name:"x" ~len:1 ()))

let test_allocator_symbols_order () =
  let a = Allocator.create ~words:100 in
  ignore (Allocator.alloc a ~name:"one" ~len:1 ());
  ignore (Allocator.alloc a ~name:"two" ~len:2 ());
  match Allocator.symbols a with
  | [ ("one", 0, 1); ("two", 1, 2) ] -> ()
  | _ -> Alcotest.fail "symbols out of order"

let test_allocator_reset () =
  let a = Allocator.create ~words:10 in
  ignore (Allocator.alloc a ~name:"x" ~len:5 ());
  Allocator.reset a;
  Alcotest.(check int) "empty again" 0 (Allocator.allocated a);
  Alcotest.(check (option (pair int int))) "names gone" None
    (Allocator.lookup a "x")

(* ---------- Lock table ---------- *)

let test_lock_immediate_grant () =
  let t = Lock_table.create () in
  let granted = ref false in
  Lock_table.acquire t ~offset:0 ~len:4 (fun _ -> granted := true);
  Alcotest.(check bool) "granted" true !granted;
  Alcotest.(check int) "held" 1 (Lock_table.held_count t)

let test_lock_conflict_waits_until_release () =
  let t = Lock_table.create () in
  let id1 = ref None and got2 = ref false in
  Lock_table.acquire t ~offset:0 ~len:4 (fun id -> id1 := Some id);
  Lock_table.acquire t ~offset:2 ~len:4 (fun _ -> got2 := true);
  Alcotest.(check bool) "second waits" false !got2;
  Alcotest.(check int) "queued" 1 (Lock_table.queued_count t);
  (match !id1 with
  | Some id -> Lock_table.release t id
  | None -> Alcotest.fail "first not granted");
  Alcotest.(check bool) "granted after release" true !got2;
  Alcotest.(check int) "queue empty" 0 (Lock_table.queued_count t)

let test_lock_disjoint_ranges_concurrent () =
  let t = Lock_table.create () in
  let a = ref false and b = ref false in
  Lock_table.acquire t ~offset:0 ~len:4 (fun _ -> a := true);
  Lock_table.acquire t ~offset:4 ~len:4 (fun _ -> b := true);
  Alcotest.(check bool) "both held" true (!a && !b);
  Alcotest.(check int) "two held" 2 (Lock_table.held_count t)

let test_lock_fifo_grant_order () =
  let t = Lock_table.create () in
  let order = ref [] in
  let first = ref None in
  Lock_table.acquire t ~offset:0 ~len:2 (fun id -> first := Some id);
  Lock_table.acquire t ~offset:0 ~len:2 (fun _ -> order := "a" :: !order);
  Lock_table.acquire t ~offset:0 ~len:2 (fun _ -> order := "b" :: !order);
  (* Release head lock; "a" is granted, "b" still conflicts with "a". *)
  (match !first with Some id -> Lock_table.release t id | None -> ());
  Alcotest.(check (list string)) "only a granted" [ "a" ] (List.rev !order)

let test_lock_first_fit_skips_blocked_head () =
  let t = Lock_table.create () in
  let held0 = ref None and got_far = ref false and got_conflict = ref false in
  Lock_table.acquire t ~offset:0 ~len:4 (fun id -> held0 := Some id);
  let held10 = ref None in
  Lock_table.acquire t ~offset:10 ~len:4 (fun id -> held10 := Some id);
  (* Queue: first a request conflicting with [10..14) (the future head),
     then one for a free range. *)
  Lock_table.acquire t ~offset:10 ~len:4 (fun _ -> got_conflict := true);
  Lock_table.acquire t ~offset:20 ~len:4 (fun _ -> got_far := true);
  (* Releasing lock 0 unblocks neither head (10 still held) but first-fit
     grants the non-conflicting request for 20. *)
  (match !held0 with Some id -> Lock_table.release t id | None -> ());
  Alcotest.(check bool) "head still blocked" false !got_conflict;
  Alcotest.(check bool) "far range granted" true !got_far;
  (match !held10 with Some id -> Lock_table.release t id | None -> ());
  Alcotest.(check bool) "head finally granted" true !got_conflict

let test_lock_double_release () =
  let t = Lock_table.create () in
  let saved = ref None in
  Lock_table.acquire t ~offset:0 ~len:1 (fun id -> saved := Some id);
  (match !saved with
  | Some id ->
      Lock_table.release t id;
      Alcotest.check_raises "double"
        (Failure "Lock_table.release: unknown or already-released lock")
        (fun () -> Lock_table.release t id)
  | None -> Alcotest.fail "not granted")

(* A refused try-acquire leaves the table as it was: nothing queued, no
   id spent, so the next grant is the one [acquire] would have made.
   A degenerate range, which [acquire] rejects, is refused too. *)
let test_lock_try_acquire_refusal () =
  let t = Lock_table.create () in
  let held = Lock_table.try_acquire t ~offset:0 ~len:4 in
  Alcotest.(check bool) "uncontended granted" true (held != Lock_table.refused);
  Alcotest.(check bool) "overlap refused" true
    (Lock_table.try_acquire t ~offset:2 ~len:4 == Lock_table.refused);
  Alcotest.(check bool) "degenerate refused" true
    (Lock_table.try_acquire t ~offset:8 ~len:0 == Lock_table.refused);
  Alcotest.(check int) "nothing queued" 0 (Lock_table.queued_count t);
  Alcotest.(check int) "one held" 1 (Lock_table.held_count t);
  let next = ref held in
  Lock_table.acquire t ~offset:4 ~len:1 (fun id -> next := id);
  let fresh = Lock_table.create () in
  let expect = ref held in
  Lock_table.acquire fresh ~offset:0 ~len:4 ignore;
  Lock_table.acquire fresh ~offset:4 ~len:1 (fun id -> expect := id);
  Alcotest.(check bool) "no id spent" true (!next = !expect);
  (* a free range that overlaps a queued request waits behind it under
     first fit, so it is refused too *)
  Lock_table.acquire t ~offset:3 ~len:4 ignore;
  Alcotest.(check bool) "queued overlap refused" true
    (Lock_table.try_acquire t ~offset:5 ~len:1 == Lock_table.refused);
  Alcotest.(check int) "one queued" 1 (Lock_table.queued_count t)

(* An uncontended try-acquire and its release allocate nothing, beside
   a disjoint held lock: a checked op takes one such pair (stencil-n16,
   103,900 per iteration). 15 minor words per pair before the empty
   queue skipped its grant pass and the queue check its closure. *)
let test_lock_uncontended_allocates_nothing () =
  let t = Lock_table.create () in
  ignore (Lock_table.try_acquire t ~offset:100 ~len:4);
  let pairs () =
    for i = 1 to 1000 do
      Lock_table.release t (Lock_table.try_acquire t ~offset:(i land 63) ~len:4)
    done
  in
  pairs ();
  let (), words = Test_util.allocated_words pairs in
  Alcotest.(check (float 0.)) "minor words per 1,000 pairs" 0. words;
  Alcotest.(check int) "one held" 1 (Lock_table.held_count t)

(* Property: under random acquire/release traffic, no two granted locks
   ever overlap, and once everything is released nothing stays queued. *)
let lock_table_random_invariants (ops : (int * int) list) =
  let t = Lock_table.create () in
  (* granted, not yet released *)
  let held : (Lock_table.lock_id * (int * int)) list ref = ref [] in
  let overlap (o1, l1) (o2, l2) = o1 < o2 + l2 && o2 < o1 + l1 in
  let ok = ref true in
  let grant range id =
    (* Invariant: the new grant conflicts with nothing currently held. *)
    List.iter
      (fun (_, r) -> if overlap r range then ok := false)
      !held;
    held := (id, range) :: !held
  in
  List.iter
    (fun (offset, len) ->
      let offset = abs offset mod 16 and len = 1 + (abs len mod 4) in
      Lock_table.acquire t ~offset ~len (grant (offset, len));
      (* Release about half the time to keep contention high. *)
      if (offset + len) mod 2 = 0 then
        match !held with
        | (id, _) :: rest ->
            held := rest;
            Lock_table.release t id
        | [] -> ())
    ops;
  (* Drain: releasing everything must eventually grant and clear all. *)
  let guard = ref 10000 in
  while !held <> [] && !guard > 0 do
    decr guard;
    (match !held with
    | (id, _) :: rest ->
        held := rest;
        Lock_table.release t id
    | [] -> ())
  done;
  !ok && Lock_table.queued_count t = 0 && Lock_table.held_count t = 0

let prop_lock_table_first_fit =
  QCheck.Test.make ~name:"lock table invariants (first fit)" ~count:100
    QCheck.(list (pair small_int small_int))
    lock_table_random_invariants

(* Property: random acquire / try-acquire / release / double-release
   sequences give the same grant order, the same held, queued and
   chained counts and the same double-release failure from the
   array-backed table as from the hashtable one it replaced
   ([Lock_table_ref]), and a try-acquire grants what the reference's
   immediate branch grants or queues nothing. Requests are named by
   their index; each grant also shows its token's hash, which for the
   int tokens both tables issue is equal exactly when the ids are. *)
type lock_op =
  | L_acquire of int * int
  | L_try_acquire of int * int
  | L_release of int
  | L_double_release of int

let show_lock_op = function
  | L_acquire (o, l) -> Printf.sprintf "acquire %d+%d" o l
  | L_try_acquire (o, l) -> Printf.sprintf "try-acquire %d+%d" o l
  | L_release j -> Printf.sprintf "release #%d" j
  | L_double_release j -> Printf.sprintf "double release #%d" j

let arb_lock_ops =
  let open QCheck.Gen in
  let op =
    frequency
      [
        ( 5,
          map2 (fun o l -> L_acquire (o, l)) (int_range 0 15) (int_range 1 4) );
        ( 3,
          map2
            (fun o l -> L_try_acquire (o, l))
            (int_range 0 15) (int_range 1 4) );
        (4, map (fun j -> L_release j) nat);
        (1, map (fun j -> L_double_release j) nat);
      ]
  in
  QCheck.make
    ~print:(fun ops -> String.concat "\n" (List.map show_lock_op ops))
    (list_size (int_range 0 80) op)

(* One table's answers to a script: after each op, the requests granted
   during it (in grant order), the counts, and any failure. *)
let lock_outcomes ~acquire ~try_acquire ~release ~held ~queued ~chained ops =
  let ids = Hashtbl.create 16 and released = ref [] and grants = ref [] in
  let granted i id =
    Hashtbl.replace ids i id;
    grants := Printf.sprintf "%d:%d" i (Hashtbl.hash id) :: !grants
  in
  let live () =
    List.sort compare
      (Hashtbl.fold
         (fun r _ acc -> if List.mem r !released then acc else r :: acc)
         ids [])
  in
  let pick j = function
    | [] -> None
    | l -> Some (List.nth l (j mod List.length l))
  in
  let release_req r =
    match release (Hashtbl.find ids r) with
    | () -> "ok"
    | exception Failure msg -> "Failure " ^ msg
  in
  List.mapi
    (fun i op ->
      grants := [];
      let result =
        match op with
        | L_acquire (offset, len) ->
            acquire ~offset ~len (granted i);
            ""
        | L_try_acquire (offset, len) -> (
            match try_acquire ~offset ~len with
            | Some id ->
                granted i id;
                "granted"
            | None -> "refused")
        | L_release j -> (
            match pick j (live ()) with
            | None -> "nothing held"
            | Some r ->
                released := r :: !released;
                release_req r)
        | L_double_release j -> (
            match pick j (List.sort compare !released) with
            | None -> "nothing released"
            | Some r -> release_req r)
      in
      Printf.sprintf "%s -> %s granted [%s] held=%d queued=%d chained=%d"
        (show_lock_op op) result
        (String.concat " " (List.rev !grants))
        (held ()) (queued ()) (chained ()))
    ops

let lock_table_matches_reference ops =
  let live = Lock_table.create () in
  let oracle = Lock_table_ref.create () in
  let got =
    lock_outcomes ~acquire:(Lock_table.acquire live)
      ~try_acquire:(fun ~offset ~len ->
        let id = Lock_table.try_acquire live ~offset ~len in
        if id == Lock_table.refused then None else Some id)
      ~release:(Lock_table.release live)
      ~held:(fun () -> Lock_table.held_count live)
      ~queued:(fun () -> Lock_table.queued_count live)
      ~chained:(fun () -> Lock_table.chained_grants live)
      ops
  and expected =
    lock_outcomes ~acquire:(Lock_table_ref.acquire oracle)
      ~try_acquire:(Lock_table_ref.try_acquire oracle)
      ~release:(Lock_table_ref.release oracle)
      ~held:(fun () -> Lock_table_ref.held_count oracle)
      ~queued:(fun () -> Lock_table_ref.queued_count oracle)
      ~chained:(fun () -> Lock_table_ref.chained_grants oracle)
      ops
  in
  if got = expected then true
  else
    QCheck.Test.fail_reportf "live:\n%s\nreference:\n%s"
      (String.concat "\n" got) (String.concat "\n" expected)

let prop_lock_table_ref_first_fit =
  QCheck.Test.make ~name:"lock table matches the reference (first fit)"
    ~count:300 arb_lock_ops
    lock_table_matches_reference

(* ---------- Node_memory ---------- *)

let test_node_alloc_and_rw () =
  let node = Node_memory.create ~pid:3 () in
  let r = Node_memory.alloc node ~space:Addr.Public ~name:"buf" ~len:4 () in
  Alcotest.(check string) "region" "P3.pub[0..3]" (Addr.to_string r);
  Node_memory.write node r [| 1; 2; 3; 4 |];
  Alcotest.(check (array int)) "readback" [| 1; 2; 3; 4 |]
    (Node_memory.read node r)

let test_node_rejects_foreign_region () =
  let node = Node_memory.create ~pid:0 () in
  let foreign = Addr.region ~pid:1 ~space:Addr.Public ~offset:0 ~len:1 in
  Alcotest.check_raises "foreign"
    (Invalid_argument "Node_memory.read: region P1.pub[0] is not on P0")
    (fun () -> ignore (Node_memory.read node foreign))

let test_node_spaces_are_distinct () =
  let node = Node_memory.create ~pid:0 () in
  let pub = Node_memory.alloc node ~space:Addr.Public ~len:1 () in
  let priv = Node_memory.alloc node ~space:Addr.Private ~len:1 () in
  Node_memory.write node pub [| 5 |];
  Node_memory.write node priv [| 6 |];
  Alcotest.(check (array int)) "public" [| 5 |] (Node_memory.read node pub);
  Alcotest.(check (array int)) "private" [| 6 |] (Node_memory.read node priv)

let test_node_memory_map () =
  let node = Node_memory.create ~pid:0 () in
  ignore (Node_memory.alloc node ~space:Addr.Public ~name:"x" ~len:2 ());
  ignore (Node_memory.alloc node ~space:Addr.Private ~name:"tmp" ~len:1 ());
  let map = Node_memory.memory_map node in
  Alcotest.(check int) "two symbols" 2 (List.length map);
  Alcotest.(check bool) "x is public" true
    (List.exists
       (fun (s, n, _, _) -> s = Addr.Public && n = "x")
       map)

let test_node_word_ops () =
  let node = Node_memory.create ~pid:0 () in
  let r = Addr.region ~pid:0 ~space:Addr.Public ~offset:7 ~len:1 in
  Node_memory.write node r [| 99 |];
  Alcotest.(check (array int)) "word" [| 99 |] (Node_memory.read node r)

let () =
  Alcotest.run "memory"
    [
      ( "addr",
        [
          Alcotest.test_case "constructors" `Quick test_addr_smart_constructors;
          Alcotest.test_case "overlap" `Quick test_addr_overlap;
          Alcotest.test_case "pp" `Quick test_addr_pp;
        ] );
      ( "segment",
        [
          Alcotest.test_case "read/write" `Quick test_segment_read_write;
          Alcotest.test_case "bounds" `Quick test_segment_bounds;
          Alcotest.test_case "blocks" `Quick test_segment_block_ops;
        ] );
      ( "allocator",
        [
          Alcotest.test_case "bump" `Quick test_allocator_bump;
          Alcotest.test_case "exhaustion" `Quick test_allocator_exhaustion;
          Alcotest.test_case "names" `Quick test_allocator_names;
          Alcotest.test_case "symbol order" `Quick test_allocator_symbols_order;
          Alcotest.test_case "reset" `Quick test_allocator_reset;
        ] );
      ( "locks",
        [
          Alcotest.test_case "immediate grant" `Quick test_lock_immediate_grant;
          Alcotest.test_case "conflict waits" `Quick test_lock_conflict_waits_until_release;
          Alcotest.test_case "disjoint concurrent" `Quick test_lock_disjoint_ranges_concurrent;
          Alcotest.test_case "fifo order" `Quick test_lock_fifo_grant_order;
          Alcotest.test_case "first-fit skips" `Quick test_lock_first_fit_skips_blocked_head;
          Alcotest.test_case "double release" `Quick test_lock_double_release;
          Alcotest.test_case "try-acquire refusal" `Quick
            test_lock_try_acquire_refusal;
          Alcotest.test_case "uncontended pair allocates nothing" `Quick
            test_lock_uncontended_allocates_nothing;
        ] );
      ( "lock-properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_lock_table_first_fit;
            prop_lock_table_ref_first_fit;
          ] );
      ( "node",
        [
          Alcotest.test_case "alloc+rw" `Quick test_node_alloc_and_rw;
          Alcotest.test_case "foreign region" `Quick test_node_rejects_foreign_region;
          Alcotest.test_case "spaces distinct" `Quick test_node_spaces_are_distinct;
          Alcotest.test_case "memory map" `Quick test_node_memory_map;
          Alcotest.test_case "word ops" `Quick test_node_word_ops;
        ] );
    ]
