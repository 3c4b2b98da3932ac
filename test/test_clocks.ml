(* Unit and property tests for dsm_clocks: the lattice laws behind Lemma 1. *)

open Dsm_clocks

let order_testable = Alcotest.testable Test_util.order_pp ( = )

let vc_testable =
  Alcotest.testable Vector_clock.pp (fun a b -> Test_util.vc_equal a b)

(* ---------- Order ---------- *)

let test_order_flip () =
  Alcotest.(check order_testable) "flip before" Order.After (Order.flip Order.Before);
  Alcotest.(check order_testable) "flip after" Order.Before (Order.flip Order.After);
  Alcotest.(check order_testable) "flip equal" Order.Equal (Order.flip Order.Equal);
  Alcotest.(check order_testable)
    "flip concurrent" Order.Concurrent (Order.flip Order.Concurrent)

let test_order_predicates () =
  Alcotest.(check bool) "concurrent" true (Order.concurrent Order.Concurrent);
  Alcotest.(check bool) "not concurrent" false (Order.concurrent Order.Before);
  Alcotest.(check bool) "equal not concurrent" false
    (Order.concurrent Order.Equal)

(* ---------- Vector clocks: directed cases ---------- *)

let vc l = Vector_clock.of_array (Array.of_list l)

let test_vc_create_zero () =
  let c = Vector_clock.create ~n:4 in
  Alcotest.(check bool) "zero" true (Vector_clock.is_zero c);
  Alcotest.(check int) "dim" 4 (Vector_clock.dim c)

let test_vc_create_invalid () =
  Alcotest.check_raises "n=0" (Invalid_argument
    "Vector_clock.create: dimension must be positive")
    (fun () -> ignore (Vector_clock.create ~n:0))

let test_vc_of_array_negative () =
  Alcotest.check_raises "negative"
    (Invalid_argument "Vector_clock.of_array: negative entry") (fun () ->
      ignore (vc [ 1; -1 ]))

let test_vc_tick () =
  let c = Vector_clock.create ~n:3 in
  Vector_clock.tick c ~me:1;
  Vector_clock.tick c ~me:1;
  Vector_clock.tick c ~me:2;
  Alcotest.(check vc_testable) "ticked" (vc [ 0; 2; 1 ]) c

let test_vc_compare_cases () =
  let check name expect a b =
    Alcotest.(check order_testable) name expect (Vector_clock.compare a b)
  in
  check "equal" Order.Equal (vc [ 1; 2 ]) (vc [ 1; 2 ]);
  check "before" Order.Before (vc [ 1; 2 ]) (vc [ 1; 3 ]);
  check "after" Order.After (vc [ 4; 2 ]) (vc [ 1; 2 ]);
  check "concurrent" Order.Concurrent (vc [ 1; 0 ]) (vc [ 0; 1 ])

let test_vc_compare_dim_mismatch () =
  Alcotest.check_raises "dim"
    (Invalid_argument "Vector_clock.compare: dimension mismatch") (fun () ->
      ignore (Vector_clock.compare (vc [ 1 ]) (vc [ 1; 2 ])))

let test_vc_merge () =
  Alcotest.(check vc_testable) "merge"
    (vc [ 3; 2; 5 ])
    (Vector_clock.merge (vc [ 3; 0; 5 ]) (vc [ 1; 2; 4 ]))

let test_vc_merge_into () =
  let a = vc [ 3; 0; 5 ] in
  Vector_clock.merge_into ~into:a (vc [ 1; 2; 4 ]);
  Alcotest.(check vc_testable) "merged in place" (vc [ 3; 2; 5 ]) a

let test_vc_snapshot_independent () =
  let a = vc [ 1; 1 ] in
  let s = Vector_clock.snapshot a in
  Vector_clock.tick a ~me:0;
  Alcotest.(check vc_testable) "snapshot frozen" (vc [ 1; 1 ]) s

let test_vc_sum_entry () =
  let a = vc [ 4; 0; 2 ] in
  Alcotest.(check int) "sum" 6 (Test_util.vc_sum a);
  Alcotest.(check int) "entry" 2 (Vector_clock.entry a 2);
  Alcotest.(check int) "size_words" 3 (Vector_clock.size_words a)

(* ---------- Vector clocks: epoch representation ---------- *)

(* The clock must keep the compact epoch form through single-writer
   histories and promote exactly on the first cross-process advance —
   while remaining abstractly identical to the dense vector throughout. *)

let test_epoch_lifecycle () =
  let c = Vector_clock.create ~n:4 in
  Alcotest.(check bool) "born epoch" true (Vector_clock.is_epoch c);
  Vector_clock.tick c ~me:2;
  Vector_clock.tick c ~me:2;
  Alcotest.(check bool) "single-writer ticks stay epoch" true
    (Vector_clock.is_epoch c);
  Alcotest.(check vc_testable) "epoch value" (vc [ 0; 0; 2; 0 ]) c;
  Vector_clock.tick c ~me:0;
  Alcotest.(check bool) "second pid promotes" false (Vector_clock.is_epoch c);
  Alcotest.(check vc_testable) "promoted value" (vc [ 1; 0; 2; 0 ]) c

(* Once dense a clock stays a dense array — merges, ticks and lowering
   [set]s never demote it — until [reset] restores the zero epoch. *)
let test_epoch_dense_pinned () =
  let c = vc [ 1; 1; 1; 1; 1; 0 ] in
  let dense c = not (Vector_clock.is_epoch c) in
  Alcotest.(check bool) "five writers at n=6 is dense" true (dense c);
  Vector_clock.tick c ~me:5;
  Vector_clock.merge_into ~into:c (vc [ 0; 0; 9; 0; 0; 0 ]);
  Alcotest.(check bool) "stays dense" true (dense c);
  Alcotest.(check vc_testable) "dense value" (vc [ 1; 1; 9; 1; 1; 1 ]) c;
  for i = 0 to 5 do
    if i <> 2 then Vector_clock.set c i 0
  done;
  Alcotest.(check bool) "lowered to one writer, still dense" true (dense c);
  Alcotest.(check vc_testable) "lowered value" (vc [ 0; 0; 9; 0; 0; 0 ]) c;
  Vector_clock.reset c;
  Alcotest.(check bool) "reset re-epochs" true (Vector_clock.is_epoch c);
  Alcotest.(check bool) "reset zeroes" true (Vector_clock.is_zero c)

let test_epoch_reset_reepochs () =
  let c = Vector_clock.create ~n:3 in
  Vector_clock.tick c ~me:0;
  Vector_clock.tick c ~me:1;
  Alcotest.(check bool) "promoted" false (Vector_clock.is_epoch c);
  Vector_clock.reset c;
  Alcotest.(check bool) "reset re-epochs adaptive" true
    (Vector_clock.is_epoch c);
  Alcotest.(check bool) "reset zeroes" true (Vector_clock.is_zero c)

(* [of_array] and [load_words] hold at most one nonzero as an epoch and
   two or more as a dense array, whatever the clock held before. *)
let test_epoch_of_array () =
  let loaded ~into l =
    let a = Array.of_list l in
    Vector_clock.load_words into (Array.append [| 5 |] a) ~off:1;
    Alcotest.(check (array int)) "loaded value" a (Vector_clock.to_array into);
    Vector_clock.is_epoch into
  in
  List.iter
    (fun (name, l, epoch) ->
      Alcotest.(check bool) (name ^ " -> of_array") epoch
        (Vector_clock.is_epoch (vc l));
      (* into a fresh clock, and into one already dense *)
      Alcotest.(check bool) (name ^ " -> load_words") epoch
        (loaded ~into:(Vector_clock.create ~n:(List.length l)) l);
      Alcotest.(check bool) (name ^ " -> load_words over dense") epoch
        (loaded ~into:(vc (List.map (fun _ -> 3) l)) l))
    [
      ("all zero", [ 0; 0; 0 ], true);
      ("one nonzero", [ 0; 7; 0 ], true);
      ("two nonzeros", [ 1; 7; 0 ], false);
      ("five nonzeros", [ 1; 2; 3; 4; 5; 0 ], false);
    ]

let test_epoch_merge_transitions () =
  (* epoch <- epoch, same owner: stays epoch, takes the max. *)
  let a = vc [ 0; 3; 0 ] in
  Vector_clock.merge_into ~into:a (vc [ 0; 5; 0 ]);
  Alcotest.(check bool) "same-owner merge stays epoch" true
    (Vector_clock.is_epoch a);
  Alcotest.(check vc_testable) "same-owner merge value" (vc [ 0; 5; 0 ]) a;
  (* epoch <- epoch, different owner: promotes, merges correctly. *)
  let b = vc [ 0; 3; 0 ] in
  Vector_clock.merge_into ~into:b (vc [ 2; 0; 0 ]);
  Alcotest.(check bool) "cross-owner merge promotes" false
    (Vector_clock.is_epoch b);
  Alcotest.(check vc_testable) "cross-owner merge value" (vc [ 2; 3; 0 ]) b;
  (* zero epoch <- epoch: adopts the source epoch without promoting. *)
  let z = Vector_clock.create ~n:3 in
  Vector_clock.merge_into ~into:z (vc [ 0; 0; 9 ]);
  Alcotest.(check bool) "zero absorbs epoch compactly" true
    (Vector_clock.is_epoch z);
  Alcotest.(check vc_testable) "absorbed value" (vc [ 0; 0; 9 ]) z;
  (* two writers <- epoch: single-slot update, stays dense. *)
  let p = vc [ 4; 1; 0 ] in
  Vector_clock.merge_into ~into:p (vc [ 0; 6; 0 ]);
  Alcotest.(check vc_testable) "two writers absorb epoch" (vc [ 4; 6; 0 ]) p;
  Alcotest.(check bool) "still dense" false (Vector_clock.is_epoch p);
  (* epoch <- two writers: promotes, takes both. *)
  let e = vc [ 0; 0; 5 ] in
  Vector_clock.merge_into ~into:e (vc [ 1; 0; 2 ]);
  Alcotest.(check vc_testable) "epoch absorbs two writers" (vc [ 1; 0; 5 ]) e;
  Alcotest.(check bool) "epoch promoted" false (Vector_clock.is_epoch e);
  (* dense <- epoch: O(1) single-slot update. *)
  let d = vc [ 4; 1; 1; 1; 1; 0 ] in
  Vector_clock.merge_into ~into:d (vc [ 0; 6; 0; 0; 0; 0 ]);
  Alcotest.(check vc_testable) "vec absorbs epoch" (vc [ 4; 6; 1; 1; 1; 0 ]) d

let test_epoch_compare_cases () =
  let check name expect a b =
    Alcotest.(check order_testable) name expect (Vector_clock.compare a b)
  in
  (* epoch/epoch, all O(1) decisions *)
  check "zero = zero" Order.Equal (vc [ 0; 0 ]) (vc [ 0; 0 ]);
  check "zero before epoch" Order.Before (vc [ 0; 0 ]) (vc [ 0; 3 ]);
  check "epoch after zero" Order.After (vc [ 0; 3 ]) (vc [ 0; 0 ]);
  check "same owner ordered" Order.Before (vc [ 0; 2 ]) (vc [ 0; 5 ]);
  check "same owner equal" Order.Equal (vc [ 4; 0 ]) (vc [ 4; 0 ]);
  check "different owners concurrent" Order.Concurrent (vc [ 3; 0 ]) (vc [ 0; 1 ]);
  (* epoch vs two writers, both directions *)
  check "epoch below two writers" Order.Before (vc [ 0; 2; 0 ]) (vc [ 1; 2; 0 ]);
  check "epoch concurrent two writers" Order.Concurrent (vc [ 0; 9; 0 ])
    (vc [ 1; 2; 0 ]);
  check "two writers above epoch" Order.After (vc [ 1; 2; 0 ]) (vc [ 0; 2; 0 ]);
  (* epoch vs dense, both directions *)
  let dense = vc [ 1; 2; 1; 1; 1; 0 ] in
  check "epoch below vec" Order.Before (vc [ 0; 2; 0; 0; 0; 0 ]) dense;
  check "epoch above vec" Order.After (vc [ 0; 9; 0; 0; 0; 0 ])
    (vc [ 0; 2; 0; 0; 0; 0 ]);
  check "epoch concurrent vec" Order.Concurrent (vc [ 0; 9; 0; 0; 0; 0 ]) dense;
  check "vec above epoch" Order.After dense (vc [ 0; 2; 0; 0; 0; 0 ]);
  (* leq epoch fast path *)
  Alcotest.(check bool) "zero leq anything" true
    (Vector_clock.leq (vc [ 0; 0 ]) (vc [ 0; 1 ]));
  Alcotest.(check bool) "epoch leq vec" true
    (Vector_clock.leq (vc [ 0; 2 ]) (vc [ 5; 2 ]));
  Alcotest.(check bool) "epoch not leq" false
    (Vector_clock.leq (vc [ 0; 3 ]) (vc [ 5; 2 ]))

let test_epoch_words_roundtrip () =
  let w = Array.make 6 99 in
  let c = vc [ 0; 7; 0 ] in
  Vector_clock.store_words c w ~off:2;
  Alcotest.(check (array int)) "stored slice" [| 99; 99; 0; 7; 0; 99 |] w;
  let c' = Vector_clock.create ~n:3 in
  Vector_clock.load_words c' w ~off:2;
  Alcotest.(check bool) "loaded compactly" true (Vector_clock.is_epoch c');
  Alcotest.(check vc_testable) "roundtrip" c c';
  (* merge_words = merge_into of the decoded slice *)
  let m = vc [ 1; 2; 3 ] in
  Vector_clock.merge_words ~into:m w ~off:2;
  Alcotest.(check vc_testable) "merge_words" (vc [ 1; 7; 3 ]) m;
  Alcotest.check_raises "out of bounds"
    (Invalid_argument "Vector_clock.load_words: slice out of bounds")
    (fun () -> Vector_clock.load_words c' w ~off:4)

(* ---------- Few live components at large n ---------- *)

(* The epoch -> dense boundary at n=64: one writer's ticks stay an
   epoch, the second writer's entry promotes, and the value, live count
   and entries hold across the promotion. Lowering an epoch's one entry
   with [set] gives the zero epoch back; [reset] does the same for a
   dense clock, which promotes again at its next second writer. *)
let test_few_live_lifecycle () =
  let n = 64 in
  let c = Vector_clock.create ~n in
  Alcotest.(check bool) "born epoch" true (Vector_clock.is_epoch c);
  Vector_clock.tick c ~me:9;
  Vector_clock.tick c ~me:9;
  Alcotest.(check bool) "single-writer ticks stay epoch" true
    (Vector_clock.is_epoch c);
  Alcotest.(check int) "one live entry" 1 (Vector_clock.active_entries c);
  Vector_clock.set c 9 0;
  Alcotest.(check bool) "lowered to zero: zero epoch" true
    (Vector_clock.is_epoch c && Vector_clock.is_zero c);
  Vector_clock.set c 9 2;
  (* a second writer promotes to dense *)
  let other = Vector_clock.create ~n in
  Vector_clock.tick other ~me:40;
  Vector_clock.merge_into ~into:c other;
  Alcotest.(check bool) "second writer promotes" false
    (Vector_clock.is_epoch c);
  Alcotest.(check int) "entry 9" 2 (Vector_clock.entry c 9);
  Alcotest.(check int) "entry 40" 1 (Vector_clock.entry c 40);
  Alcotest.(check int) "active entries" 2 (Vector_clock.active_entries c);
  for pid = 0 to 5 do
    let o = Vector_clock.create ~n in
    Vector_clock.tick o ~me:pid;
    Vector_clock.merge_into ~into:c o
  done;
  Alcotest.(check int) "more writers" 8 (Vector_clock.active_entries c);
  Alcotest.(check bool) "still dense" false (Vector_clock.is_epoch c);
  (* [set] raises a second entry of an epoch into a dense clock *)
  let s = Vector_clock.create ~n in
  Vector_clock.set s 3 4;
  Alcotest.(check bool) "set on the zero epoch" true (Vector_clock.is_epoch s);
  Vector_clock.set s 50 1;
  Alcotest.(check bool) "set a second entry promotes" false
    (Vector_clock.is_epoch s);
  Alcotest.(check int) "set values" 5 (Test_util.vc_sum s);
  (* reset restores the compact epoch form without losing capacity *)
  Vector_clock.reset c;
  Alcotest.(check bool) "reset re-epochs" true (Vector_clock.is_epoch c);
  Alcotest.(check bool) "reset zeroes" true (Vector_clock.is_zero c);
  Vector_clock.tick c ~me:3;
  Alcotest.(check bool) "one writer after reset" true (Vector_clock.is_epoch c);
  Vector_clock.tick c ~me:7;
  Alcotest.(check bool) "promotes again after reset" false
    (Vector_clock.is_epoch c)

let test_few_live_merge () =
  (* interleaved live pids: left-only, right-only and both-present
     components *)
  let mk l = Vector_clock.of_array (Array.of_list l) in
  let a = mk [ 0; 5; 0; 3; 0; 0; 1; 0 ] in
  let b = mk [ 2; 0; 0; 7; 0; 4; 0; 0 ] in
  let m = Vector_clock.merge a b in
  Alcotest.(check (array int)) "merge scan"
    [| 2; 5; 0; 7; 0; 4; 1; 0 |]
    (Vector_clock.to_array m);
  Vector_clock.merge_into ~into:a b;
  Alcotest.(check (array int)) "merge_into scan"
    [| 2; 5; 0; 7; 0; 4; 1; 0 |]
    (Vector_clock.to_array a)

let test_few_live_compare_cases () =
  let mk l = Vector_clock.of_array (Array.of_list l) in
  let x = mk [ 1; 0; 2; 0 ] in
  let y = mk [ 1; 0; 3; 0 ] in
  let z = mk [ 0; 4; 0; 0 ] in
  Alcotest.(check order_testable) "before" Order.Before
    (Vector_clock.compare x y);
  Alcotest.(check order_testable) "after" Order.After (Vector_clock.compare y x);
  Alcotest.(check bool) "concurrent" true (Vector_clock.concurrent x z);
  Alcotest.(check order_testable) "equal" Order.Equal
    (Vector_clock.compare x (mk [ 1; 0; 2; 0 ]));
  (* two live components against six, and an epoch against both *)
  let x8 = mk [ 1; 0; 2; 0; 0; 0; 0; 0 ] in
  let d8 = mk [ 1; 1; 3; 1; 1; 1; 0; 0 ] in
  let e8 = mk [ 0; 0; 2; 0; 0; 0; 0; 0 ] in
  Alcotest.(check (list bool)) "epoch, dense, dense" [ true; false; false ]
    (List.map Vector_clock.is_epoch [ e8; x8; d8 ]);
  Alcotest.(check order_testable) "few before many" Order.Before
    (Vector_clock.compare x8 d8);
  Alcotest.(check order_testable) "many after few" Order.After
    (Vector_clock.compare d8 x8);
  Alcotest.(check order_testable) "epoch before few" Order.Before
    (Vector_clock.compare e8 x8);
  Alcotest.(check bool) "few concurrent many" true
    (Vector_clock.concurrent (mk [ 0; 4; 0; 0; 0; 0; 0; 1 ]) d8)

(* ---------- Vector clocks: properties ---------- *)

let gen_vc n =
  QCheck.Gen.(array_size (return n) (int_bound 8) >|= Vector_clock.of_array)

let arb_vc_pair =
  QCheck.make
    ~print:(fun (a, b) ->
      Vector_clock.to_string a ^ " / " ^ Vector_clock.to_string b)
    QCheck.Gen.(
      int_range 1 6 >>= fun n ->
      pair (gen_vc n) (gen_vc n))

let arb_vc_triple =
  QCheck.make
    ~print:(fun (a, b, c) ->
      String.concat " / "
        (List.map Vector_clock.to_string [ a; b; c ]))
    QCheck.Gen.(
      int_range 1 6 >>= fun n ->
      triple (gen_vc n) (gen_vc n) (gen_vc n))

let prop_compare_antisymmetric =
  QCheck.Test.make ~name:"compare a b = flip (compare b a)" ~count:500
    arb_vc_pair (fun (a, b) ->
      Vector_clock.compare a b = Order.flip (Vector_clock.compare b a))

let prop_merge_upper_bound =
  QCheck.Test.make ~name:"merge dominates both operands" ~count:500 arb_vc_pair
    (fun (a, b) ->
      let m = Vector_clock.merge a b in
      Vector_clock.leq a m && Vector_clock.leq b m)

let prop_merge_least =
  QCheck.Test.make ~name:"merge is the least upper bound" ~count:500
    arb_vc_triple (fun (a, b, c) ->
      let m = Vector_clock.merge a b in
      if Vector_clock.leq a c && Vector_clock.leq b c then
        Vector_clock.leq m c
      else true)

let prop_merge_commutative_idempotent =
  QCheck.Test.make ~name:"merge commutative and idempotent" ~count:500
    arb_vc_pair (fun (a, b) ->
      Test_util.vc_equal (Vector_clock.merge a b) (Vector_clock.merge b a)
      && Test_util.vc_equal (Vector_clock.merge a a) a)

let prop_tick_strictly_after =
  QCheck.Test.make ~name:"tick moves strictly after" ~count:500 arb_vc_pair
    (fun (a, _) ->
      let before = Vector_clock.copy a in
      Vector_clock.tick a ~me:0;
      Vector_clock.compare before a = Order.Before)

let prop_leq_transitive =
  QCheck.Test.make ~name:"leq is transitive" ~count:500 arb_vc_triple
    (fun (a, b, c) ->
      if Vector_clock.leq a b && Vector_clock.leq b c then Vector_clock.leq a c
      else true)

let prop_codec_roundtrip =
  QCheck.Test.make ~name:"dense codec roundtrip" ~count:500 arb_vc_pair
    (fun (a, _) ->
      Test_util.vc_equal a (Codec.decode_vector (Codec.encode_vector a)))

let prop_varint_codec_roundtrip =
  QCheck.Test.make ~name:"varint codec roundtrip" ~count:500 arb_vc_pair
    (fun (a, _) ->
      Test_util.vc_equal a
        (Codec_ref.decode_vector_varint (Codec.encode_vector_varint a)))

let prop_varint_at_least_one_byte_per_entry =
  QCheck.Test.make ~name:"varint lower bound (>= n+1 bytes)" ~count:500
    arb_vc_pair (fun (a, _) ->
      Bytes.length (Codec.encode_vector_varint a) >= Vector_clock.dim a + 1)

(* Adaptive ≡ dense reference: random histories applied in lockstep to
   two library clocks and to two [Dense_ref] oracles (Algorithms 3-4
   taken literally). After every step both pairs must hold the same
   values and give the same compare/leq/equal verdicts — representation
   must never leak into a verdict. *)

type clock_op =
  | Tick of int * int  (** clock, pid *)
  | Merge_other of int  (** merge_into ~into:clock the other clock *)
  | Merge_lit of int * int array
  | Load of int * int array  (** load_words *)
  | Merge_words of int * int array
  | Copy of int  (** clock := copy of the other clock *)
  | Reset of int

(* Arrays with a random number of nonzero entries, so literal merges and
   loads land on every representation: zero and one writer (epoch), a
   few and many (dense). *)
let gen_clock_array n =
  QCheck.Gen.(
    int_bound n >>= fun k ->
    list_repeat k (pair (int_bound (n - 1)) (int_range 1 9)) >|= fun kvs ->
    let a = Array.make n 0 in
    List.iter (fun (i, v) -> a.(i) <- v) kvs;
    a)

let gen_ops n =
  QCheck.Gen.(
    list_size (int_range 1 40)
      (int_bound 1 >>= fun c ->
       frequency
         [
           (6, int_bound (n - 1) >|= fun p -> Tick (c, p));
           (3, return (Merge_other c));
           (3, gen_clock_array n >|= fun a -> Merge_lit (c, a));
           (2, gen_clock_array n >|= fun a -> Load (c, a));
           (2, gen_clock_array n >|= fun a -> Merge_words (c, a));
           (1, return (Copy c));
           (1, return (Reset c));
         ]))

let print_history (n, ops) =
  let arr a = String.concat "," (Array.to_list (Array.map string_of_int a)) in
  Printf.sprintf "n=%d " n
  ^ String.concat ";"
      (List.map
         (function
           | Tick (c, p) -> Printf.sprintf "c%d tick %d" c p
           | Merge_other c -> Printf.sprintf "c%d merge other" c
           | Merge_lit (c, a) -> Printf.sprintf "c%d merge [%s]" c (arr a)
           | Load (c, a) -> Printf.sprintf "c%d load [%s]" c (arr a)
           | Merge_words (c, a) ->
               Printf.sprintf "c%d merge_words [%s]" c (arr a)
           | Copy c -> Printf.sprintf "c%d copy other" c
           | Reset c -> Printf.sprintf "c%d reset" c)
         ops)

let arb_history ~sizes =
  QCheck.make ~print:print_history
    QCheck.Gen.(oneofl sizes >>= fun n -> pair (return n) (gen_ops n))

(* Slices sit one word into a padded buffer, as in a NIC frame. *)
let framed a =
  let w = Array.make (Array.length a + 2) 7 in
  Array.blit a 0 w 1 (Array.length a);
  w

let apply (cs : Vector_clock.t array) (rs : Dense_ref.t array) = function
  | Tick (c, p) ->
      Vector_clock.tick cs.(c) ~me:p;
      Dense_ref.tick rs.(c) ~me:p
  | Merge_other c ->
      Vector_clock.merge_into ~into:cs.(c) cs.(1 - c);
      Dense_ref.merge_into ~into:rs.(c) rs.(1 - c)
  | Merge_lit (c, a) ->
      Vector_clock.merge_into ~into:cs.(c) (Vector_clock.of_array a);
      Dense_ref.merge_into ~into:rs.(c) a
  | Load (c, a) ->
      Vector_clock.load_words cs.(c) (framed a) ~off:1;
      Dense_ref.load_words rs.(c) (framed a) ~off:1
  | Merge_words (c, a) ->
      Vector_clock.merge_words ~into:cs.(c) (framed a) ~off:1;
      Dense_ref.merge_words ~into:rs.(c) (framed a) ~off:1
  | Copy c ->
      cs.(c) <- Vector_clock.copy cs.(1 - c);
      rs.(c) <- Dense_ref.copy rs.(1 - c)
  | Reset c ->
      Vector_clock.reset cs.(c);
      Dense_ref.reset rs.(c)

(* An epoch never holds more than one live component. *)
let shape_ok c =
  (not (Vector_clock.is_epoch c)) || Vector_clock.active_entries c <= 1

let agrees cs rs =
  let a = cs.(0) and b = cs.(1) and ra = rs.(0) and rb = rs.(1) in
  Vector_clock.to_array a = ra
  && Vector_clock.to_array b = rb
  && shape_ok a && shape_ok b
  && Vector_clock.compare a b = Dense_ref.compare ra rb
  && Vector_clock.compare b a = Dense_ref.compare rb ra
  && Vector_clock.leq a b = Dense_ref.leq ra rb
  && Vector_clock.leq b a = Dense_ref.leq rb ra
  && Test_util.vc_equal a b = (ra = rb)

let run_history (n, ops) =
  let cs = Array.init 2 (fun _ -> Vector_clock.create ~n) in
  let rs = Array.init 2 (fun _ -> Dense_ref.create ~n) in
  List.for_all
    (fun op ->
      apply cs rs op;
      agrees cs rs)
    ops

let prop_adaptive_equals_dense =
  QCheck.Test.make ~name:"adaptive history = dense history" ~count:500
    (arb_history ~sizes:[ 1; 3; 8; 16; 64 ])
    run_history

(* Histories aimed at the promotion boundary: the first clock absorbs one
   new writer at a time through ticks and single-entry merges, so it
   crosses from an epoch into the dense array with few live components
   at large n, while the second keeps comparing against it. *)
let prop_few_writers_equals_dense =
  QCheck.Test.make ~name:"few-writer history = dense history" ~count:300
    QCheck.(
      make
        ~print:(fun (n, pids) ->
          Printf.sprintf "n=%d pids=%s" n
            (String.concat "," (List.map string_of_int pids)))
        Gen.(
          oneofl [ 8; 16; 64 ] >>= fun n ->
          pair (return n) (list_size (int_range 1 40) (int_bound (n - 1)))))
    (fun (n, pids) ->
      let ops =
        List.concat_map
          (fun p ->
            let single = Array.make n 0 in
            single.(p) <- 1 + (p mod 3);
            [ Tick (1, p); Merge_lit (0, single); Merge_other 0 ])
          pids
      in
      run_history (n, ops))

let prop_representation_blind_compare =
  QCheck.Test.make ~name:"compare blind to representation" ~count:500
    arb_vc_pair (fun (x, y) ->
      let rx = Vector_clock.to_array x and ry = Vector_clock.to_array y in
      (* the same value reached through load_words instead of of_array *)
      let loaded v =
        let c = Vector_clock.create ~n:(Vector_clock.dim v) in
        Vector_clock.load_words c (Vector_clock.to_array v) ~off:0;
        c
      in
      let expected = Dense_ref.compare rx ry in
      expected = Vector_clock.compare x y
      && expected = Vector_clock.compare (loaded x) y
      && expected = Vector_clock.compare x (loaded y)
      && Vector_clock.leq x y = Dense_ref.leq rx ry)

let prop_words_roundtrip =
  QCheck.Test.make ~name:"store_words/load_words roundtrip" ~count:500
    arb_vc_pair (fun (x, _) ->
      let w = Array.make (Vector_clock.dim x + 2) 0 in
      Vector_clock.store_words x w ~off:1;
      let c = Vector_clock.create ~n:(Vector_clock.dim x) in
      Vector_clock.load_words c w ~off:1;
      Test_util.vc_equal x c)

(* Word slices embedded at an arbitrary position inside a larger buffer —
   the layout Clock_store entries and piggybacked NIC frames rely on.
   Words outside the slice must survive the store untouched. *)
let arb_vc_pair_off =
  QCheck.make
    ~print:(fun ((a, b), off) ->
      Printf.sprintf "%s / %s @ %d" (Vector_clock.to_string a)
        (Vector_clock.to_string b) off)
    QCheck.Gen.(
      int_range 1 6 >>= fun n ->
      pair (pair (gen_vc n) (gen_vc n)) (int_range 0 9))

let prop_slice_roundtrip_mid_buffer =
  QCheck.Test.make ~name:"store/load_words mid-buffer, frame intact"
    ~count:500 arb_vc_pair_off (fun ((x, _), off) ->
      let n = Vector_clock.dim x in
      let sentinel = -12345 in
      let w = Array.make (off + n + 3) sentinel in
      Vector_clock.store_words x w ~off;
      let frame_ok = ref true in
      Array.iteri
        (fun i v ->
          if (i < off || i >= off + n) && v <> sentinel then frame_ok := false)
        w;
      let c = Vector_clock.create ~n in
      Vector_clock.load_words c w ~off;
      !frame_ok && Test_util.vc_equal x c)

let prop_merge_words_equals_merge_into =
  QCheck.Test.make ~name:"merge_words = merge_into of decoded slice"
    ~count:500 arb_vc_pair_off (fun ((x, y), off) ->
      let n = Vector_clock.dim x in
      let w = Array.make (off + n) 0 in
      Vector_clock.store_words y w ~off;
      let via_words = Vector_clock.copy x in
      Vector_clock.merge_words ~into:via_words w ~off;
      let via_merge = Vector_clock.copy x in
      Vector_clock.merge_into ~into:via_merge y;
      Test_util.vc_equal via_words via_merge)

let prop_delta_codec_roundtrip =
  QCheck.Test.make ~name:"delta codec roundtrip" ~count:500 arb_vc_pair
    (fun (base, v) ->
      let w = Codec.encode_vector_delta ~since:base v in
      Test_util.vc_equal v (Codec_ref.decode_vector_delta ~base w))

(* ---------- Matrix clocks ---------- *)

let test_mc_create () =
  let m = Matrix_clock.create ~n:3 ~me:1 in
  Alcotest.(check int) "dim" 3 (Matrix_clock.dim m);
  Alcotest.(check int) "owner" 1 (Matrix_clock.owner m);
  Alcotest.(check bool) "zero own vector" true
    (Vector_clock.is_zero (Test_util.matrix_row m 1))

let test_mc_tick () =
  let m = Matrix_clock.create ~n:3 ~me:1 in
  Matrix_clock.tick m;
  Matrix_clock.tick m;
  Alcotest.(check int) "diagonal" 2 (Matrix_clock.entry m 1 1);
  Alcotest.(check vc_testable) "own row" (vc [ 0; 2; 0 ])
    (Test_util.matrix_row m 1)

let test_mc_observe () =
  let a = Matrix_clock.create ~n:2 ~me:0 in
  let b = Matrix_clock.create ~n:2 ~me:1 in
  Matrix_clock.tick a;
  Matrix_clock.tick b;
  Matrix_clock.tick b;
  Matrix_clock.observe a b;
  (* a's principal row absorbs b's principal row. *)
  Alcotest.(check vc_testable) "a knows b" (vc [ 1; 2 ])
    (Test_util.matrix_row a 0);
  (* a's row for b holds b's vector. *)
  Alcotest.(check vc_testable) "a's view of b" (vc [ 0; 2 ])
    (Test_util.matrix_row a 1)

let test_mc_codec_roundtrip () =
  let a = Matrix_clock.create ~n:3 ~me:2 in
  Matrix_clock.tick a;
  let b = Matrix_clock.create ~n:3 ~me:0 in
  Matrix_clock.tick b;
  Matrix_clock.observe a b;
  let owner, rows = Codec_ref.decode_matrix (Codec.encode_matrix a) in
  Alcotest.(check int) "owner" (Matrix_clock.owner a) owner;
  for i = 0 to 2 do
    Alcotest.(check (array int))
      (Printf.sprintf "row %d" i)
      (Vector_clock.to_array (Test_util.matrix_row a i)) rows.(i)
  done

let test_mc_size_words () =
  let m = Matrix_clock.create ~n:5 ~me:0 in
  (* E6's wire cost: the n^2 entries behind a two-word header *)
  Alcotest.(check int) "n^2" 25 (Array.length (Codec.encode_matrix m) - 2)

(* ---------- Codec edges ---------- *)

let test_codec_varint_malformed () =
  Alcotest.check_raises "truncated"
    (Invalid_argument "Codec.decode_vector_varint: truncated") (fun () ->
      ignore (Codec_ref.decode_vector_varint (Bytes.of_string "\x02\x01")));
  Alcotest.check_raises "trailing"
    (Invalid_argument "Codec.decode_vector_varint: trailing bytes") (fun () ->
      ignore (Codec_ref.decode_vector_varint (Bytes.of_string "\x01\x01\x01")))

let test_codec_varint_large_values () =
  let v = Vector_clock.of_array [| 0; 127; 128; 300; 1_000_000 |] in
  Alcotest.(check bool) "roundtrip big counters" true
    (Test_util.vc_equal v
       (Codec_ref.decode_vector_varint (Codec.encode_vector_varint v)))

let test_codec_malformed () =
  Alcotest.check_raises "empty"
    (Invalid_argument "Codec.decode_vector: empty buffer") (fun () ->
      ignore (Codec.decode_vector [||]));
  Alcotest.check_raises "bad header"
    (Invalid_argument "Codec.decode_vector: malformed buffer") (fun () ->
      ignore (Codec.decode_vector [| 3; 1 |]))

let test_codec_matrix_malformed () =
  Alcotest.check_raises "empty"
    (Invalid_argument "Codec.decode_matrix: empty buffer") (fun () ->
      ignore (Codec_ref.decode_matrix [||]));
  Alcotest.check_raises "bad owner"
    (Invalid_argument "Codec.decode_matrix: malformed buffer") (fun () ->
      ignore (Codec_ref.decode_matrix [| 2; 5; 0; 0; 0; 0 |]))

let test_codec_sizes () =
  let v = Vector_clock.create ~n:8 in
  Alcotest.(check int) "dense words" 9 (Array.length (Codec.encode_vector v));
  Alcotest.(check int) "bytes" 72
    (Codec.bytes_of_words (Array.length (Codec.encode_vector v)));
  let w = Codec.encode_vector_delta ~since:v v in
  Alcotest.(check int) "empty delta" 2 (Array.length w)

(* The delta decoder gets the same reject coverage as the sparse one:
   every malformed shape is a clean [Invalid_argument], never an
   out-of-bounds access or an attacker-sized allocation. Each payload is
   decoded as the delta frame that carries it. *)
let test_codec_delta_malformed () =
  let base = Vector_clock.of_array [| 1; 0; 2 |] in
  let decode_delta ~base w =
    fst (Codec.decode_piggyback ~expect_seq:0 ~base (Array.append [| 2; 0 |] w))
  in
  Alcotest.check_raises "empty"
    (Invalid_argument "Codec.decode_vector_delta: empty") (fun () ->
      ignore (decode_delta ~base [||]));
  Alcotest.check_raises "dimension mismatch vs base"
    (Invalid_argument "Codec.decode_vector_delta: malformed buffer") (fun () ->
      ignore (decode_delta ~base [| 4; 0 |]));
  Alcotest.check_raises "negative entry count"
    (Invalid_argument "Codec.decode_vector_delta: malformed buffer") (fun () ->
      ignore (decode_delta ~base [| 3; -1 |]));
  Alcotest.check_raises "truncated pair list"
    (Invalid_argument "Codec.decode_vector_delta: malformed buffer") (fun () ->
      ignore (decode_delta ~base [| 3; 1 |]));
  Alcotest.check_raises "padded pair list"
    (Invalid_argument "Codec.decode_vector_delta: malformed buffer") (fun () ->
      ignore (decode_delta ~base [| 3; 1; 0; 5; 0 |]));
  Alcotest.check_raises "pid out of range"
    (Invalid_argument "Codec.decode_vector_delta: malformed entry") (fun () ->
      ignore (decode_delta ~base [| 3; 1; 3; 5 |]));
  Alcotest.check_raises "negative pid"
    (Invalid_argument "Codec.decode_vector_delta: malformed entry") (fun () ->
      ignore (decode_delta ~base [| 3; 1; -1; 5 |]));
  Alcotest.check_raises "negative component"
    (Invalid_argument "Codec.decode_vector_delta: malformed entry") (fun () ->
      ignore (decode_delta ~base [| 3; 1; 0; -2 |]));
  (* indices must be strictly ascending, as in the sparse payload: no
     last-duplicate-wins, no reordering *)
  Alcotest.check_raises "unsorted indices"
    (Invalid_argument "Codec.decode_vector_delta: malformed entry") (fun () ->
      ignore (decode_delta ~base [| 3; 2; 2; 5; 0; 1 |]));
  Alcotest.check_raises "duplicate indices"
    (Invalid_argument "Codec.decode_vector_delta: malformed entry") (fun () ->
      ignore (decode_delta ~base [| 3; 2; 1; 5; 1; 6 |]));
  Alcotest.check_raises "framed duplicate indices"
    (Invalid_argument "Codec.decode_vector_delta: malformed entry") (fun () ->
      ignore
        (Codec.decode_piggyback ~expect_seq:0 ~base
           [| 2; 0; 3; 2; 2; 4; 2; 5 |]));
  (* a zero override is legal: a delta may lower a component *)
  Alcotest.(check (array int))
    "zero override lowers" [| 0; 7; 2 |]
    (Vector_clock.to_array
       (decode_delta ~base [| 3; 2; 0; 0; 1; 7 |]));
  Alcotest.check_raises "encode dimension mismatch"
    (Invalid_argument "Codec.encode_vector_delta: dimension mismatch")
    (fun () ->
      ignore
        (Codec.encode_vector_delta
           ~since:(Vector_clock.create ~n:2)
           base))

(* Self-framed piggybacks: the mode accessor and carried seq, the
   adaptive encoder's tag choices, and the decoder's defence against
   out-of-sequence or baseless deltas. *)
let test_codec_piggyback () =
  let v = Vector_clock.of_array [| 2; 0; 1; 0; 0; 0; 0; 0 |] in
  (* dense and sparse frames are self-contained: any expected seq decodes *)
  let wd = Codec.encode_piggyback ~mode:Codec.Dense ~seq:7 v in
  Alcotest.(check bool) "dense tag" true (Codec_ref.piggyback_mode_of wd = Codec.Dense);
  let v', s = Codec.decode_piggyback ~expect_seq:99 wd in
  Alcotest.(check bool) "dense roundtrip" true (Test_util.vc_equal v v');
  Alcotest.(check int) "dense carried seq" 7 s;
  let ws = Codec.encode_piggyback ~mode:Codec.Sparse ~seq:0 v in
  Alcotest.(check bool) "sparse tag" true
    (Codec_ref.piggyback_mode_of ws = Codec.Sparse);
  let v', _ = Codec.decode_piggyback ~expect_seq:3 ws in
  Alcotest.(check bool) "sparse roundtrip" true (Test_util.vc_equal v v');
  (* adaptive: with a near base the delta frame wins and is pinned to
     its seq and base *)
  let since = Vector_clock.of_array [| 1; 0; 1; 0; 0; 0; 0; 0 |] in
  let wdl = Codec.encode_piggyback ~mode:Codec.Delta ~seq:3 ~since v in
  Alcotest.(check bool) "delta tag" true
    (Codec_ref.piggyback_mode_of wdl = Codec.Delta);
  let v', _ = Codec.decode_piggyback ~expect_seq:3 ~base:since wdl in
  Alcotest.(check bool) "delta roundtrip" true (Test_util.vc_equal v v');
  (* empty-delta edge: unchanged clock ships a two-word payload *)
  let we = Codec.encode_piggyback ~mode:Codec.Delta ~seq:4 ~since:v v in
  Alcotest.(check bool) "empty delta tag" true
    (Codec_ref.piggyback_mode_of we = Codec.Delta);
  Alcotest.(check int) "empty delta frame" 4 (Array.length we);
  let v', _ = Codec.decode_piggyback ~expect_seq:4 ~base:v we in
  Alcotest.(check bool) "empty delta roundtrip" true (Test_util.vc_equal v v');
  (* since-mismatch edge: a base of the wrong dimension cannot be
     diffed against, so the encoder degrades to self-contained *)
  let wm =
    Codec.encode_piggyback ~mode:Codec.Delta ~seq:5
      ~since:(Vector_clock.create ~n:4) v
  in
  Alcotest.(check bool) "mismatched base degrades" true
    (Codec_ref.piggyback_mode_of wm <> Codec.Delta);
  let wn = Codec.encode_piggyback ~mode:Codec.Delta ~seq:5 v in
  Alcotest.(check bool) "no base degrades" true
    (Codec_ref.piggyback_mode_of wn <> Codec.Delta);
  (* rejects *)
  Alcotest.check_raises "negative seq (encode)"
    (Invalid_argument "Codec.encode_piggyback: negative seq") (fun () ->
      ignore (Codec.encode_piggyback ~mode:Codec.Dense ~seq:(-1) v));
  Alcotest.check_raises "truncated frame"
    (Invalid_argument "Codec.decode_piggyback: truncated frame") (fun () ->
      ignore (Codec.decode_piggyback ~expect_seq:0 [| 0 |]));
  Alcotest.check_raises "unknown tag"
    (Invalid_argument "Codec.decode_piggyback: unknown tag") (fun () ->
      ignore (Codec.decode_piggyback ~expect_seq:0 [| 9; 0; 1; 1 |]));
  Alcotest.check_raises "negative seq (decode)"
    (Invalid_argument "Codec.decode_piggyback: negative seq") (fun () ->
      ignore (Codec.decode_piggyback ~expect_seq:0 [| 1; -2; 8; 0 |]));
  Alcotest.check_raises "out-of-sequence delta"
    (Invalid_argument "Codec.decode_piggyback: out-of-sequence delta")
    (fun () ->
      ignore (Codec.decode_piggyback ~expect_seq:4 ~base:since wdl));
  Alcotest.check_raises "delta without base"
    (Invalid_argument "Codec.decode_piggyback: delta without base") (fun () ->
      ignore (Codec.decode_piggyback ~expect_seq:3 wdl))

(* ---------- Codec against the build-all-three reference ---------- *)

(* A clock of dimension [n] with the live components [kind] names:
   none or one (an epoch), a few, exactly as many as make a sparse
   payload as long as a dense one, one more, and a random density up to
   full. *)
let oracle_clock rng ~n kind =
  let tie = (n - 1) / 2 in
  let live =
    match kind with
    | 0 -> 0
    | 1 -> 1
    | 2 -> 2 + Random.State.int rng (max 1 (tie - 2))
    | 3 -> tie
    | 4 -> tie + 1
    | _ -> tie + 1 + Random.State.int rng n
  in
  let a = Array.make n 0 in
  for _ = 1 to min n live do
    let rec fresh () =
      let p = Random.State.int rng n in
      if a.(p) = 0 then p else fresh ()
    in
    a.(fresh ()) <- 1 + Random.State.int rng 50
  done;
  Vector_clock.of_array a

(* [since] kinds: none, a perturbation of [v] (entries raised, lowered,
   zeroed, added), an unrelated clock, the wrong dimension, [v] itself. *)
let oracle_since rng ~n v = function
  | 0 -> None
  | 1 ->
      let a = Vector_clock.to_array v in
      for _ = 0 to Random.State.int rng 6 do
        let p = Random.State.int rng n in
        a.(p) <-
          (match Random.State.int rng 3 with
          | 0 -> 0
          | 1 -> max 0 (a.(p) - 1)
          | _ -> a.(p) + 1 + Random.State.int rng 5)
      done;
      Some (Vector_clock.of_array a)
  | 2 -> Some (oracle_clock rng ~n (Random.State.int rng 6))
  | 3 -> Some (oracle_clock rng ~n:(n + 1) (Random.State.int rng 6))
  | _ -> Some (Vector_clock.copy v)

(* Both decoders return equal clocks and seqs, or both raise. *)
let decoders_agree ~expect_seq ?base w =
  let run decode =
    match decode ~expect_seq ?base w with
    | v, seq -> Some (Vector_clock.to_array v, seq)
    | exception Invalid_argument _ -> None
  in
  run Codec.decode_piggyback = run Codec_ref.decode_piggyback

(* Word positions to mutate: all of a short frame, the headers, the
   tail and a few random words of a long one. *)
let mutation_sites rng w =
  let len = Array.length w in
  if len <= 24 then List.init len Fun.id
  else
    List.init 8 Fun.id
    @ List.init 4 (fun i -> len - 1 - i)
    @ List.init 8 (fun _ -> Random.State.int rng len)

let prop_codec_matches_reference =
  QCheck.Test.make ~name:"codec matches the build-all-three reference"
    ~count:400
    QCheck.(
      make
        ~print:(fun (n, kind, sk, seed) ->
          Printf.sprintf "(n=%d, kind=%d, since=%d, seed=%d)" n kind sk seed)
        Gen.(
          quad
            (oneofl [ 1; 3; 8; 64; 1024 ])
            (int_bound 5) (int_bound 4) (int_bound 1_000_000)))
    (fun (n, kind, sk, seed) ->
      let rng = Random.State.make [| seed |] in
      let v = oracle_clock rng ~n kind in
      let since = oracle_since rng ~n v sk in
      let seq = Random.State.int rng 1_000 in
      let unframed_ok =
        Codec.encode_vector v = Codec_ref.encode_vector v
        &&
        match since with
        | Some s when Vector_clock.dim s = n ->
            Codec.encode_vector_delta ~since:s v
            = Codec_ref.encode_vector_delta ~since:s v
        | _ -> true
      in
      unframed_ok
      && List.for_all
           (fun mode ->
             let w = Codec_ref.encode_piggyback ~mode ~seq ?since v in
             Codec.encode_piggyback ~mode ~seq ?since v = w
             && decoders_agree ~expect_seq:seq ?base:since w
             && List.for_all
                  (fun i ->
                    let x = w.(i) in
                    List.for_all
                      (fun x' ->
                        let w' = Array.copy w in
                        w'.(i) <- x';
                        decoders_agree ~expect_seq:seq ?base:since w')
                      [ x + 1; x - 1; 0; -1; 2 ])
                  (mutation_sites rng w))
           [ Codec.Dense; Codec.Sparse; Codec.Delta ])

(* ---------- decoding against the sized-first reference ---------- *)

(* A clock holding [value] whose representation started as an epoch
   (shape 0) or dense, with two writers (1) or every process (2): every
   component is then [set], and lowering never demotes, so a dense start
   stays dense whenever the dimension allows a dense clock at all. *)
let held_as shape value =
  let n = Vector_clock.dim value in
  let c =
    match shape with
    | 0 -> Vector_clock.create ~n
    | 1 -> Vector_clock.of_array (Array.init n (fun i -> if i < 2 then 1 else 0))
    | _ -> Vector_clock.of_array (Array.make n 1)
  in
  for i = 0 to n - 1 do
    Vector_clock.set c i (Vector_clock.entry value i)
  done;
  c

(* The frame itself, then the targeted corruptions: truncated, bad tag,
   unsorted pids, negative tick, wrong dimension word; then single-word
   perturbations. *)
let frame_mutations rng w =
  let len = Array.length w in
  let with_word i x =
    let w' = Array.copy w in
    w'.(i) <- x;
    w'
  in
  let swapped_pids =
    if len >= 8 then begin
      let w' = Array.copy w in
      w'.(4) <- w.(6);
      w'.(6) <- w.(4);
      [ w' ]
    end
    else []
  in
  [ w; Array.sub w 0 (len - 1); Array.sub w 0 1; [||]; with_word 0 7 ]
  @ swapped_pids
  @ (if len > 5 then [ with_word 5 (-1) ] else [])
  @ (if len > 3 then [ with_word 3 (-1) ] else [])
  @ (if len > 2 then [ with_word 2 (w.(2) + 1); with_word 2 (w.(2) - 1) ]
     else [])
  @ List.concat_map
      (fun i -> [ with_word i (w.(i) + 1); with_word i 0 ])
      (mutation_sites rng w)

(* [decode_piggyback] returns what the sized-first decoder returns
   against the same base, or raises its exact text; either way it
   leaves [base] as it was. *)
let decode_matches ~expect_seq ~base w =
  let before = Option.map Vector_clock.copy base in
  let expected =
    match Codec_ref.Sized.decode_piggyback ~expect_seq ?base:before w with
    | r -> Ok r
    | exception Invalid_argument msg -> Error msg
  in
  let unchanged () =
    match (base, before) with
    | Some b, Some b' -> Test_util.vc_equal b b'
    | _ -> true
  in
  match (Codec.decode_piggyback ~expect_seq ?base w, expected) with
  | (v, seq), Ok (v', seq') ->
      seq = seq' && Test_util.vc_equal v v' && unchanged ()
  | _, Error _ -> false
  | exception Invalid_argument msg -> (
      match expected with
      | Error msg' -> msg = msg' && unchanged ()
      | Ok _ -> false)

let prop_decode_matches_sized_reference =
  QCheck.Test.make ~name:"decoding matches the sized-first reference"
    ~count:300
    QCheck.(
      make
        ~print:(fun (n, kind, sk, seed) ->
          Printf.sprintf "(n=%d, kind=%d, since=%d, seed=%d)" n kind sk seed)
        Gen.(
          quad (int_range 1 64) (int_bound 5) (int_bound 4)
            (int_bound 1_000_000)))
    (fun (n, kind, sk, seed) ->
      let rng = Random.State.make [| seed |] in
      let v = oracle_clock rng ~n kind in
      let since = oracle_since rng ~n v sk in
      let seq = Random.State.int rng 1_000 in
      List.for_all
        (fun mode ->
          let w = Codec.encode_piggyback ~mode ~seq ?since v in
          w = Codec_ref.Sized.encode_piggyback ~mode ~seq ?since v
          && List.for_all
               (fun w' ->
                 List.for_all
                   (fun (shape, expect_seq) ->
                     let base =
                       match (since, shape) with
                       | None, _ | _, None -> None
                       | Some s, Some shape -> Some (held_as shape s)
                     in
                     decode_matches ~expect_seq ~base w')
                   [
                     (None, seq); (Some 0, seq); (Some 1, seq); (Some 2, seq);
                     (Some 2, seq + 1);
                   ])
               (frame_mutations rng w))
        [ Codec.Dense; Codec.Sparse; Codec.Delta ])

(* ---------- the edge sizer against the build-all-three reference ---------- *)

(* Three frames on one edge: each clock step perturbs [v] in place
   (components raised, lowered, zeroed or added, so its representation
   moves as a live clock's would), and [size_piggyback_edge] must price
   the reference's frame against the value the cache held — its length
   and its tag — count that tag, and leave the cache equal to [v] under
   [Delta] and untouched under a forced mode, whatever the epoch or
   dense shapes and live counts of the clock and the cache. *)
let prop_edge_encoder_matches_reference =
  QCheck.Test.make
    ~name:"edge encoder matches the reference size and advances its cache"
    ~count:400
    QCheck.(
      make
        ~print:(fun ((n, vk, vs), (ck, cs), seed) ->
          Printf.sprintf "(n=%d, clock=%d/%d, cache=%d/%d, seed=%d)" n vk vs ck
            cs seed)
        Gen.(
          triple
            (triple (oneofl [ 1; 3; 8; 17; 64; 1024 ]) (int_bound 5) (int_bound 2))
            (pair (int_bound 3) (int_bound 2))
            (int_bound 1_000_000)))
    (fun ((n, vk, vs), (ck, cs), seed) ->
      let rng = Random.State.make [| seed |] in
      let v = held_as vs (oracle_clock rng ~n vk) in
      let cache_value =
        match ck with
        | 0 -> Vector_clock.create ~n
        | 1 -> (
            match oracle_since rng ~n v 1 with
            | Some c -> c
            | None -> Vector_clock.create ~n)
        | 2 -> oracle_clock rng ~n (Random.State.int rng 6)
        | _ -> Vector_clock.copy v
      in
      let step () =
        for _ = 0 to Random.State.int rng 4 do
          let p = Random.State.int rng n in
          let x = Vector_clock.entry v p in
          Vector_clock.set v p
            (match Random.State.int rng 3 with
            | 0 -> 0
            | 1 -> max 0 (x - 1)
            | _ -> x + 1 + Random.State.int rng 5)
        done
      in
      List.for_all
        (fun mode ->
          let cache = held_as cs cache_value in
          let tally = Codec.tally () in
          List.for_all
            (fun round ->
              if round > 0 then step ();
              let seq = Random.State.int rng 1_000 in
              let before = Vector_clock.to_array v in
              let held = Vector_clock.copy cache in
              let expected =
                Codec_ref.encode_piggyback ~mode ~seq ~since:held v
              in
              let counts () = (tally.dense, tally.sparse, tally.delta) in
              let d0, s0, l0 = counts () in
              let sized = Codec.size_piggyback_edge ~tally ~mode ~cache v in
              let d1, s1, l1 = counts () in
              let counted =
                match Codec_ref.piggyback_mode_of expected with
                | Codec.Dense -> (d1, s1, l1) = (d0 + 1, s0, l0)
                | Codec.Sparse -> (d1, s1, l1) = (d0, s0 + 1, l0)
                | Codec.Delta -> (d1, s1, l1) = (d0, s0, l0 + 1)
              in
              Codec.frame_words sized = Array.length expected
              && Codec.header ~seq sized = (seq * 4) + expected.(0)
              && counted
              && Test_util.vc_equal cache
                   (if mode = Codec.Delta then v else held)
              && Vector_clock.to_array v = before)
            [ 0; 1; 2 ])
        [ Codec.Dense; Codec.Sparse; Codec.Delta ])

let test_edge_encoder_rejects () =
  let cache = Vector_clock.create ~n:4 in
  let tally = Codec.tally () in
  Alcotest.check_raises "dimension"
    (Invalid_argument "Codec.size_piggyback_edge: dimension mismatch")
    (fun () ->
      ignore
        (Codec.size_piggyback_edge ~tally ~mode:Codec.Delta ~cache
           (Vector_clock.create ~n:5)));
  Alcotest.(check (list int)) "nothing counted" [ 0; 0; 0 ]
    [ tally.dense; tally.sparse; tally.delta ]

(* The receiver's check of a frame header: self-contained frames pass at
   any seq, a delta only at the expected one and never on an edge that
   has delivered nothing; each passing header advances the expectation
   to one past its seq. *)
let test_header_check () =
  let v = Vector_clock.of_array [| 2; 0; 1; 0; 0; 0; 0; 0 |] in
  let sized mode =
    Codec.size_piggyback_edge ~tally:(Codec.tally ()) ~mode
      ~cache:(Vector_clock.copy v) v
  in
  let dense = sized Codec.Dense
  and sparse = sized Codec.Sparse
  and delta = sized Codec.Delta in
  Alcotest.(check (list int)) "frame words" [ 11; 8; 4 ]
    (List.map Codec.frame_words [ dense; sparse; delta ]);
  let check = Codec.check_header and h = Codec.header in
  Alcotest.(check int) "dense at any seq" 8
    (check ~expect_seq:(-1) (h ~seq:7 dense));
  Alcotest.(check int) "sparse at any seq" 1
    (check ~expect_seq:5 (h ~seq:0 sparse));
  Alcotest.(check int) "delta in sequence" 6
    (check ~expect_seq:5 (h ~seq:5 delta));
  Alcotest.check_raises "delta out of sequence"
    (Invalid_argument "Codec.check_header: out-of-sequence delta") (fun () ->
      ignore (check ~expect_seq:5 (h ~seq:6 delta)));
  Alcotest.check_raises "delta before any frame"
    (Invalid_argument "Codec.check_header: delta without base") (fun () ->
      ignore (check ~expect_seq:(-1) (h ~seq:0 delta)));
  Alcotest.check_raises "unknown tag"
    (Invalid_argument "Codec.check_header: unknown tag") (fun () ->
      ignore (check ~expect_seq:0 (h ~seq:0 delta + 1)));
  Alcotest.check_raises "negative"
    (Invalid_argument "Codec.check_header: negative seq") (fun () ->
      ignore (check ~expect_seq:0 (-4)))

(* The walkers against the dense array: the active walk is the
   nonzeros, and the diff scans count them and write the differing
   components (and, advancing, leave the base equal to the clock). *)
let prop_walkers_match_arrays =
  QCheck.Test.make ~name:"live-entry walkers match the dense array"
    ~count:300
    QCheck.(
      make
        ~print:(fun (n, ka, kb, seed) ->
          Printf.sprintf "(n=%d, a=%d, b=%d, seed=%d)" n ka kb seed)
        Gen.(
          quad
            (oneofl [ 1; 3; 8; 64; 1024 ])
            (int_bound 5) (int_bound 5) (int_bound 1_000_000)))
    (fun (n, ka, kb, seed) ->
      let rng = Random.State.make [| seed |] in
      let a = oracle_clock rng ~n ka and b = oracle_clock rng ~n kb in
      let aa = Vector_clock.to_array a and ba = Vector_clock.to_array b in
      let collect walk =
        let acc = ref [] in
        walk (fun i x -> acc := (i, x) :: !acc);
        List.rev !acc
      in
      let indices p = List.filter p (List.init n Fun.id) in
      let sizes = Vector_clock.diff_sizes ~advance:false ~since:a b in
      let k = sizes / (n + 1) and d = sizes mod (n + 1) in
      let advanced = Vector_clock.copy a in
      let advanced_sizes =
        Vector_clock.diff_sizes ~advance:true ~since:advanced b
      in
      let diff = Array.make (1 + (2 * d)) 0 in
      Vector_clock.write_diff ~since:a b diff ~off:1;
      let diff = Array.sub diff 1 (2 * d) in
      let diff_pairs = List.init d (fun j -> (diff.(2 * j), diff.((2 * j) + 1))) in
      advanced_sizes = sizes
      && Test_util.vc_equal advanced b
      && collect (fun f -> Vector_clock.iter_active f a)
      = List.map (fun i -> (i, aa.(i))) (indices (fun i -> aa.(i) <> 0))
      && k = List.length (indices (fun i -> ba.(i) <> 0))
      && diff_pairs
         = List.map
             (fun i -> (i, ba.(i)))
             (indices (fun i -> aa.(i) <> ba.(i))))

(* Untimed allocation guard: a Delta-mode piggyback round trip of an
   epoch clock at n=1024 against an epoch base costs a handful of words.
   An n-word array anywhere on the path costs over a thousand. Against
   an older epoch the sparse frame wins (it ties the one-entry delta);
   against an equal base the empty delta frame does. *)
let test_piggyback_round_trip_allocation () =
  let n = 1024 in
  let older = Vector_clock.create ~n in
  for _ = 1 to 6 do
    Vector_clock.tick older ~me:517
  done;
  let v = Vector_clock.copy older in
  Vector_clock.tick v ~me:517;
  let round_trip since () =
    let w = Codec.encode_piggyback ~mode:Codec.Delta ~seq:3 ~since v in
    (Codec_ref.piggyback_mode_of w, fst (Codec.decode_piggyback ~expect_seq:3 ~base:since w))
  in
  List.iter
    (fun (name, since, tag) ->
      ignore (round_trip since ());
      let (mode, v'), words = Test_util.allocated_words (round_trip since) in
      Alcotest.(check bool) (name ^ " round trip") true (Test_util.vc_equal v v');
      Alcotest.(check bool) (name ^ " frame tag") true (mode = tag);
      if words >= 100. then
        Alcotest.failf "%s: round trip allocated %.0f words (limit 100)" name
          words)
    [
      ("older epoch", older, Codec.Sparse);
      ("equal epoch", Vector_clock.copy v, Codec.Delta);
    ]

(* Minor words [rounds] calls of [f] allocate after one warm-up call. *)
let minor_words_of ~rounds f =
  f ();
  let before = Gc.minor_words () in
  for _ = 1 to rounds do
    f ()
  done;
  Gc.minor_words () -. before

(* The in-place paths allocate nothing once their target has the
   shape: a dense-to-dense [assign], and sizing a piggyback against the
   edge cache, which advances the cache in the same walk — with the
   clock and the cache each an epoch or a dense clock of a few or many
   live components, assigned into one cache. *)
let test_in_place_allocation () =
  let n = 64 in
  let dense seed = Vector_clock.of_array (Array.init n (fun i -> 1 + ((i * seed) mod 7))) in
  let src = dense 3 and into = dense 5 in
  let words = minor_words_of ~rounds:1_000 (fun () -> Vector_clock.assign ~into src) in
  Alcotest.(check bool) "assign copies" true (Test_util.vc_equal into src);
  Alcotest.(check (float 0.)) "assign between dense clocks" 0. words;
  (* one clock of each shape: a single writer, three, and twenty live
     components; the caches overlap the clocks, so some sizes pick a
     delta *)
  let shaped seed live =
    Vector_clock.of_array
      (Array.init n (fun i ->
           if i >= seed && i < seed + live then 1 + (i mod 5) else 0))
  in
  let shapes seed = [| shaped seed 1; shaped seed 3; shaped seed 20 |] in
  let clocks = shapes 1 and caches = shapes 2 in
  Alcotest.(check (list bool)) "epoch, dense, dense" [ true; false; false ]
    (List.map Vector_clock.is_epoch (Array.to_list clocks));
  Alcotest.(check (list bool)) "caches too" [ true; false; false ]
    (List.map Vector_clock.is_epoch (Array.to_list caches));
  let cache = Vector_clock.create ~n and tally = Codec.tally () in
  let sized = ref 0 in
  let size_all () =
    for i = 0 to 2 do
      for j = 0 to 2 do
        Vector_clock.assign ~into:cache caches.(j);
        let v = clocks.(i) in
        sized := Codec.size_piggyback_edge ~tally ~mode:Codec.Delta ~cache v;
        sized := Codec.size_piggyback_edge ~tally ~mode:Codec.Sparse ~cache v
      done
    done
  in
  let words = minor_words_of ~rounds:1_000 size_all in
  Alcotest.(check int) "every pair sized" (2 * 9 * 1_001)
    (tally.dense + tally.sparse + tally.delta);
  Alcotest.(check bool) "deltas among them" true (tally.delta > 0);
  Alcotest.(check bool) "sparse payloads among them" true (tally.sparse > 0);
  Alcotest.(check (float 0.)) "sizing against the edge cache" 0. words

(* Owner stamps against the dense reference: a small system of process
   clocks and datum clocks driven through the detector's moves — a
   process ticks ([Stamp.tick]), absorbs a datum or another process's
   clock without ticking (a read's absorption, a barrier, a lock
   acquire), ships its clock into a datum ([Stamp.merge_into] with its
   current stamp), or has a snapshot of its clock shipped later and
   unstamped (the Explicit transport's [vput]). After every move each
   stamp must answer [leq] against every clock of the system exactly as
   the dense comparison does, each process's current stamp likewise,
   and every value must equal the reference's. *)

type stamp_op =
  | S_tick of int  (** process *)
  | S_absorb of int * int  (** process, datum: merge without a tick *)
  | S_join of int * int  (** process, process: merge without a tick *)
  | S_ship of int * int  (** process into datum, with its stamp *)
  | S_snapshot of int  (** copy a process clock into the pending slot *)
  | S_deliver of int  (** pending slot into datum, unstamped *)

let data_clocks = 3

let gen_stamp_ops n =
  QCheck.Gen.(
    list_size (int_range 1 60)
      (int_bound (n - 1) >>= fun p ->
       int_bound (data_clocks - 1) >>= fun d ->
       int_bound (n - 1) >>= fun q ->
       frequency
         [
           (5, return (S_tick p));
           (2, return (S_absorb (p, d)));
           (1, return (S_join (p, q)));
           (4, return (S_ship (p, d)));
           (1, return (S_snapshot p));
           (1, return (S_deliver d));
         ]))

let print_stamp_ops (n, ops) =
  Printf.sprintf "n=%d " n
  ^ String.concat ";"
      (List.map
         (function
           | S_tick p -> Printf.sprintf "P%d tick" p
           | S_absorb (p, d) -> Printf.sprintf "P%d absorbs D%d" p d
           | S_join (p, q) -> Printf.sprintf "P%d absorbs P%d" p q
           | S_ship (p, d) -> Printf.sprintf "P%d ships into D%d" p d
           | S_snapshot p -> Printf.sprintf "snapshot P%d" p
           | S_deliver d -> Printf.sprintf "deliver into D%d" d)
         ops)

let run_stamp_ops (n, ops) =
  let procs = Array.init n (fun _ -> Vector_clock.create ~n) in
  let owners = Stamp.owners procs in
  let data = Array.init data_clocks (fun _ -> Vector_clock.create ~n) in
  let stamps = Array.make data_clocks Stamp.none in
  let pending = ref (Vector_clock.create ~n) in
  let rprocs = Array.init n (fun _ -> Dense_ref.create ~n) in
  let rdata = Array.init data_clocks (fun _ -> Dense_ref.create ~n) in
  let rpending = ref (Dense_ref.create ~n) in
  let ship d clock rclock ~cur =
    stamps.(d) <- Stamp.merge_into ~into:data.(d) ~stamp:stamps.(d) clock ~cur;
    Dense_ref.merge_into ~into:rdata.(d) rclock
  in
  let apply = function
    | S_tick p ->
        Stamp.tick owners p;
        Dense_ref.tick rprocs.(p) ~me:p
    | S_absorb (p, d) ->
        Vector_clock.merge_into ~into:procs.(p) data.(d);
        Dense_ref.merge_into ~into:rprocs.(p) rdata.(d)
    | S_join (p, q) ->
        Vector_clock.merge_into ~into:procs.(p) procs.(q);
        Dense_ref.merge_into ~into:rprocs.(p) rprocs.(q)
    | S_ship (p, d) ->
        ship d procs.(p) rprocs.(p) ~cur:(Stamp.current owners p)
    | S_snapshot p ->
        pending := Vector_clock.copy procs.(p);
        rpending := Dense_ref.copy rprocs.(p)
    | S_deliver d -> ship d !pending !rpending ~cur:Stamp.none
  in
  let all = Array.append procs data and rall = Array.append rprocs rdata in
  (* a stamp, where there is one, decides [leq] like the dense clock it
     stands for *)
  let exact st r =
    st = Stamp.none
    || Array.for_all2 (fun c rc -> Stamp.leq st c = Dense_ref.leq r rc) all rall
  in
  List.for_all
    (fun op ->
      apply op;
      Array.for_all2 (fun c r -> Vector_clock.to_array c = r) all rall
      && Array.for_all2 exact stamps rdata
      && List.for_all
           (fun p -> exact (Stamp.current owners p) rprocs.(p))
           (List.init n Fun.id)
      && not (Stamp.leq Stamp.none procs.(0)))
    ops

let prop_stamps_match_dense =
  QCheck.Test.make ~name:"owner stamps decide leq as the dense clocks do"
    ~count:1000
    (QCheck.make ~print:print_stamp_ops
       QCheck.Gen.(int_range 1 8 >>= fun n -> pair (return n) (gen_stamp_ops n)))
    run_stamp_ops

(* [merge_into_equal] tells whether [into <= src] held, on every pair of
   representations, and leaves the merge's value. *)
let arb_array_pair =
  QCheck.make
    ~print:(fun (a, b) ->
      let arr a = String.concat "," (Array.to_list (Array.map string_of_int a)) in
      Printf.sprintf "[%s] / [%s]" (arr a) (arr b))
    QCheck.Gen.(
      oneofl [ 1; 3; 8; 16; 40 ] >>= fun n ->
      pair (gen_clock_array n) (gen_clock_array n))

let prop_merge_into_equal =
  QCheck.Test.make ~name:"merge_into_equal reports into <= src" ~count:500
    arb_array_pair (fun (ra, rb) ->
      let into = Vector_clock.of_array ra in
      let covered = Vector_clock.merge_into_equal ~into (Vector_clock.of_array rb) in
      let rm = Dense_ref.copy ra in
      Dense_ref.merge_into ~into:rm rb;
      covered = Dense_ref.leq ra rb && Vector_clock.to_array into = rm)

(* The O(1) pricing of a clock its owner only ticked since the edge's
   last frame: the same priced frame, tally and advanced cache as the
   walk. The clock is priced once by the walk (the edge's last frame),
   ticked [k] times at [own], then priced both ways from equal caches. *)
let prop_ticked_pricing_matches_walk =
  QCheck.Test.make ~name:"ticked pricing = walk pricing" ~count:500
    QCheck.(
      pair arb_array_pair (make Gen.(pair (int_bound 39) (int_bound 3))))
    (fun ((ra, rb), (own, k)) ->
      let cache0 = Vector_clock.of_array ra and v = Vector_clock.of_array rb in
      let own = own mod Array.length ra in
      let tally0 = Codec.tally () in
      let last = Codec.size_piggyback_edge ~tally:tally0 ~mode:Codec.Delta
          ~cache:cache0 v in
      for _ = 1 to k do
        Vector_clock.tick v ~me:own
      done;
      let walk_cache = Vector_clock.copy cache0
      and fast_cache = Vector_clock.copy cache0 in
      let walk_tally = Codec.tally () and fast_tally = Codec.tally () in
      let walk =
        Codec.size_piggyback_edge ~tally:walk_tally ~mode:Codec.Delta
          ~cache:walk_cache v
      and fast =
        Codec.size_piggyback_ticked ~tally:fast_tally ~cache:fast_cache ~last
          ~own v
      in
      let counts (t : Codec.tally) = (t.dense, t.sparse, t.delta) in
      Codec.frame_words walk = Codec.frame_words fast
      && Codec.header ~seq:3 walk = Codec.header ~seq:3 fast
      && counts walk_tally = counts fast_tally
      && Vector_clock.to_array walk_cache = Vector_clock.to_array fast_cache
      && Vector_clock.to_array fast_cache = Vector_clock.to_array v)

let qsuite = List.map QCheck_alcotest.to_alcotest
  [
    prop_compare_antisymmetric;
    prop_merge_upper_bound;
    prop_merge_least;
    prop_merge_commutative_idempotent;
    prop_tick_strictly_after;
    prop_leq_transitive;
    prop_adaptive_equals_dense;
    prop_few_writers_equals_dense;
    prop_representation_blind_compare;
    prop_words_roundtrip;
    prop_slice_roundtrip_mid_buffer;
    prop_merge_words_equals_merge_into;
    prop_codec_roundtrip;
    prop_delta_codec_roundtrip;
    prop_varint_codec_roundtrip;
    prop_varint_at_least_one_byte_per_entry;
    prop_stamps_match_dense;
    prop_merge_into_equal;
  ]

let () =
  Alcotest.run "clocks"
    [
      ( "order",
        [
          Alcotest.test_case "flip" `Quick test_order_flip;
          Alcotest.test_case "predicates" `Quick test_order_predicates;
        ] );
      ( "vector",
        [
          Alcotest.test_case "create zero" `Quick test_vc_create_zero;
          Alcotest.test_case "create invalid" `Quick test_vc_create_invalid;
          Alcotest.test_case "of_array negative" `Quick test_vc_of_array_negative;
          Alcotest.test_case "tick" `Quick test_vc_tick;
          Alcotest.test_case "compare cases" `Quick test_vc_compare_cases;
          Alcotest.test_case "compare mismatch" `Quick test_vc_compare_dim_mismatch;
          Alcotest.test_case "merge" `Quick test_vc_merge;
          Alcotest.test_case "merge_into" `Quick test_vc_merge_into;
          Alcotest.test_case "snapshot" `Quick test_vc_snapshot_independent;
          Alcotest.test_case "sum/entry/size" `Quick test_vc_sum_entry;
        ] );
      ( "vector-epoch",
        [
          Alcotest.test_case "lifecycle" `Quick test_epoch_lifecycle;
          Alcotest.test_case "dense pinned" `Quick test_epoch_dense_pinned;
          Alcotest.test_case "reset re-epochs" `Quick test_epoch_reset_reepochs;
          Alcotest.test_case "of_array" `Quick test_epoch_of_array;
          Alcotest.test_case "merge transitions" `Quick
            test_epoch_merge_transitions;
          Alcotest.test_case "compare cases" `Quick test_epoch_compare_cases;
          Alcotest.test_case "words roundtrip" `Quick test_epoch_words_roundtrip;
        ] );
      (* clocks with few live components at large n *)
      ( "sparse",
        [
          Alcotest.test_case "lifecycle + promotion" `Quick
            test_few_live_lifecycle;
          Alcotest.test_case "merge scan" `Quick test_few_live_merge;
          Alcotest.test_case "compare cases" `Quick test_few_live_compare_cases;
        ] );
      ("vector-properties", qsuite);
      ( "matrix",
        [
          Alcotest.test_case "create" `Quick test_mc_create;
          Alcotest.test_case "tick" `Quick test_mc_tick;
          Alcotest.test_case "observe" `Quick test_mc_observe;
          Alcotest.test_case "codec roundtrip" `Quick test_mc_codec_roundtrip;
          Alcotest.test_case "size_words" `Quick test_mc_size_words;
        ] );
      ( "codec",
        [
          Alcotest.test_case "malformed" `Quick test_codec_malformed;
          Alcotest.test_case "varint malformed" `Quick test_codec_varint_malformed;
          Alcotest.test_case "varint large" `Quick test_codec_varint_large_values;
          Alcotest.test_case "matrix malformed" `Quick test_codec_matrix_malformed;
          Alcotest.test_case "sizes" `Quick test_codec_sizes;
          Alcotest.test_case "delta malformed" `Quick test_codec_delta_malformed;
          Alcotest.test_case "piggyback" `Quick test_codec_piggyback;
          Alcotest.test_case "piggyback allocation" `Quick
            test_piggyback_round_trip_allocation;
          Alcotest.test_case "in-place allocation" `Quick
            test_in_place_allocation;
          QCheck_alcotest.to_alcotest prop_codec_matches_reference;
          QCheck_alcotest.to_alcotest prop_decode_matches_sized_reference;
          QCheck_alcotest.to_alcotest prop_walkers_match_arrays;
          QCheck_alcotest.to_alcotest prop_edge_encoder_matches_reference;
          QCheck_alcotest.to_alcotest prop_ticked_pricing_matches_walk;
          Alcotest.test_case "edge encoder rejects" `Quick
            test_edge_encoder_rejects;
          Alcotest.test_case "receiver header check" `Quick test_header_check;
        ] );
    ]
