(* Two representations and one promotion: a clock that has only ever
   been advanced by a single process is kept as a compact {e epoch} — the
   FastTrack-style [(pid, count)] pair, denoting the vector that is
   [count] at [pid] and 0 elsewhere. The first entry of a second process
   (a cross-process merge, tick or [set]) promotes it to a dense [int
   array] of [dim] components. The common single-writer access then
   costs O(1) and allocates nothing; a clock that has seen two writers
   costs O(n), the paper's bound (§4.3). Owner stamps ([Stamp]) decide
   most checks on dense clocks in O(1) as well. The abstract value, and
   hence every detection verdict, is that of the dense vector.

   [pid] also names the live representation: an epoch's owner (>= 0),
   or [dense]. The dense array is allocated on first use and retained
   whatever the clock holds later ([reset], [load_words], [assign]), so
   a warmed-up scratch clock or overwritten copy never allocates again.
   The canonical zero epoch is [count = 0] with [pid = 0].

   [gen] counts the changes that are not ticks: a merge that raises a
   component, [assign], [set], [reset], [load_words]. A tick leaves it
   alone, so a clock whose [gen] still reads what it read at some
   earlier moment has changed since only through [tick]s. Promotion
   changes the representation, not the value, and leaves it alone
   too. *)

type t = {
  mutable pid : int;  (* epoch owner, or [dense] *)
  mutable count : int;  (* epoch count, 0 = the zero clock; stale if dense *)
  dim : int;
  mutable vec : int array;  (* dense components; == no_vec until allocated *)
  mutable gen : int;  (* non-tick changes so far *)
}

let no_vec : int array = [||]

let dense = -1

let is_dense t = t.pid = dense

let is_epoch t = t.pid >= 0

let create ~n =
  if n <= 0 then invalid_arg "Vector_clock.create: dimension must be positive";
  { pid = 0; count = 0; dim = n; vec = no_vec; gen = 0 }

let dim t = t.dim

let generation t = t.gen

let changed t = t.gen <- t.gen + 1

(* The dense array, allocated once and kept for the clock's lifetime.
   Its contents are stale outside dense mode. *)
let ensure_vec t = if t.vec == no_vec then t.vec <- Array.make t.dim 0

(* [len] words from [src.(src_off)] to [dst.(0)], [src != dst]. A loop,
   not [Array.blit]: a clock's arrays soon live in the major heap, where
   the runtime's blit runs the write barrier on every word; an [int
   array] store needs none. Every caller has checked both ranges (equal
   dimensions or a checked slice). *)
let copy_words (src : int array) ~src_off (dst : int array) len =
  for i = 0 to len - 1 do
    Array.unsafe_set dst i (Array.unsafe_get src (src_off + i))
  done

(* Epoch -> dense. One-way except through [reset], [load_words] and
   [assign], which re-derive or copy the representation. *)
let promote t =
  if not (is_dense t) then begin
    if t.vec == no_vec then t.vec <- Array.make t.dim 0
    else Array.fill t.vec 0 t.dim 0;
    if t.count > 0 then t.vec.(t.pid) <- t.count;
    t.pid <- dense
  end

(* Componentwise max against a single [(p, v)] entry, [v > 0] — the
   building block for epoch sources and word-slice merges. A raise
   counts as a change. *)
let bump t p v =
  if is_dense t then begin
    if v > t.vec.(p) then begin
      t.vec.(p) <- v;
      changed t
    end
  end
  else if t.count = 0 then begin
    t.pid <- p;
    t.count <- v;
    changed t
  end
  else if t.pid = p then begin
    if v > t.count then begin
      t.count <- v;
      changed t
    end
  end
  else begin
    promote t;
    t.vec.(p) <- v;
    changed t
  end

(* Copies the dense array only when it is live. *)
let copy t =
  {
    pid = t.pid;
    count = t.count;
    dim = t.dim;
    vec = (if is_dense t then Array.copy t.vec else no_vec);
    gen = 0;
  }

(* <= 1 nonzero -> epoch; otherwise dense. *)
let of_array a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Vector_clock.of_array: empty";
  let nonzeros = ref 0 and last = ref 0 in
  for i = 0 to n - 1 do
    if a.(i) < 0 then invalid_arg "Vector_clock.of_array: negative entry";
    if a.(i) <> 0 then begin
      incr nonzeros;
      last := i
    end
  done;
  let t = create ~n in
  if !nonzeros = 1 then begin
    t.pid <- !last;
    t.count <- a.(!last)
  end
  else if !nonzeros > 1 then begin
    t.vec <- Array.copy a;
    t.pid <- dense
  end;
  t

(* Component [i], unchecked. *)
let get c i =
  if is_dense c then c.vec.(i) else if i = c.pid then c.count else 0

let entry c i =
  if i < 0 || i >= c.dim then invalid_arg "Vector_clock.entry";
  get c i

let check_dim a b name =
  if a.dim <> b.dim then
    invalid_arg (Printf.sprintf "Vector_clock.%s: dimension mismatch" name)

(* The nonzero components in ascending pid order: one entry for an
   epoch, one scan for a dense clock. *)
let iter_active f c =
  if is_dense c then
    for i = 0 to c.dim - 1 do
      let x = c.vec.(i) in
      if x <> 0 then f i x
    done
  else if c.count > 0 then f c.pid c.count

(* Component [i] becomes [x], raised or lowered. Lowering never demotes
   a dense clock (an epoch whose entry drops to 0 is the zero epoch
   again); a second process's entry promotes as a tick would. *)
let set c i x =
  if i < 0 || i >= c.dim then invalid_arg "Vector_clock.set: index out of range";
  if x < 0 then invalid_arg "Vector_clock.set: negative entry";
  changed c;
  if is_dense c then c.vec.(i) <- x
  else if c.count = 0 || c.pid = i then begin
    c.pid <- (if x > 0 then i else 0);
    c.count <- x
  end
  else if x > 0 then begin
    promote c;
    c.vec.(i) <- x
  end

let assign ~into src =
  check_dim into src "assign";
  if is_dense src then begin
    ensure_vec into;
    copy_words src.vec ~src_off:0 into.vec into.dim
  end
  else into.count <- src.count;
  into.pid <- src.pid;
  changed into

(* ---------- the piggyback diff walk ---------- *)

(* Lays pair [(i, x)] out at [w.(slot)] unless sizing; the next slot. *)
let put_pair w slot i x =
  if w == no_vec then slot
  else begin
    w.(slot) <- i;
    w.(slot + 1) <- x;
    slot + 2
  end

(* The one walk behind the piggyback encoder: the components where [v]
   and [since] differ, in ascending order. A dense pair reads both
   arrays directly; a dense and an epoch clock (a transition, rare on
   one edge) walk the dimension through [get]; two epochs differ in at
   most their two entries. Sizing ([w == no_vec]) also counts the
   nonzero components of [v] and returns both counts packed in one
   immediate int; writing lays the [(index, value)] pairs out at
   [w.(off)..]. With [advance], [since] is left equal to [v] — a dense
   [since] is patched at the changed components in the same pass, an
   epoch takes [v]'s representation afterwards. No closure is called
   per component. *)
let diff_walk ~since v w ~off ~advance =
  check_dim since v "diff_walk";
  let k = ref 0 and d = ref 0 and slot = ref off in
  if is_dense v && is_dense since then begin
    let a = v.vec and b = since.vec in
    for i = 0 to v.dim - 1 do
      let x = a.(i) in
      if x <> 0 then incr k;
      if x <> b.(i) then begin
        incr d;
        slot := put_pair w !slot i x;
        if advance then b.(i) <- x
      end
    done
  end
  else if is_dense v || is_dense since then begin
    for i = 0 to v.dim - 1 do
      let x = get v i and y = get since i in
      if x <> 0 then incr k;
      if x <> y then begin
        incr d;
        slot := put_pair w !slot i x;
        if advance && is_dense since then since.vec.(i) <- x
      end
    done;
    if advance && not (is_dense since) then assign ~into:since v
  end
  else begin
    (* two epochs: [since]'s entry drops to 0 unless [v] holds the same
       pid, and the pairs go out in pid order *)
    let a = v.pid and x = v.count and b = since.pid and y = since.count in
    let drops = y > 0 && (x = 0 || b <> a) in
    if x > 0 then k := 1;
    if drops && (x = 0 || b < a) then begin
      incr d;
      slot := put_pair w !slot b 0
    end;
    if x > 0 && (y = 0 || b <> a || x <> y) then begin
      incr d;
      slot := put_pair w !slot a x
    end;
    if drops && x > 0 && b > a then begin
      incr d;
      slot := put_pair w !slot b 0
    end;
    if advance then assign ~into:since v
  end;
  if advance && !d > 0 then changed since;
  if w == no_vec then (!k * (v.dim + 1)) + !d else !d

let diff_sizes ~advance ~since v = diff_walk ~since v no_vec ~off:0 ~advance

let write_diff ~since v w ~off =
  if w == no_vec then invalid_arg "Vector_clock.write_diff: empty buffer";
  ignore (diff_walk ~since v w ~off ~advance:false)

let is_zero c =
  if is_dense c then Array.for_all (fun x -> x = 0) c.vec else c.count = 0

(* Nonzero components: what a sparse payload carries. *)
let active_entries c =
  if is_dense c then begin
    let k = ref 0 in
    for i = 0 to c.dim - 1 do
      if c.vec.(i) <> 0 then incr k
    done;
    !k
  end
  else if c.count > 0 then 1
  else 0

let tick c ~me =
  if me < 0 || me >= c.dim then invalid_arg "Vector_clock.tick";
  if is_dense c then c.vec.(me) <- c.vec.(me) + 1
  else if c.count = 0 then begin
    c.pid <- me;
    c.count <- 1
  end
  else if c.pid = me then c.count <- c.count + 1
  else begin
    promote c;
    c.vec.(me) <- 1
  end

let merge_into ~into src =
  check_dim into src "merge_into";
  if is_epoch src then begin
    if src.count > 0 then bump into src.pid src.count
  end
  else begin
    (* dense source: the destination sees up to [dim] live components *)
    promote into;
    let v = into.vec and s = src.vec in
    let raised = ref false in
    for i = 0 to into.dim - 1 do
      let x = s.(i) in
      if x > v.(i) then begin
        v.(i) <- x;
        raised := true
      end
    done;
    if !raised then changed into
  end

let merge a b =
  check_dim a b "merge";
  let r = copy a in
  merge_into ~into:r b;
  r

let order_of ~some_lt ~some_gt : Order.t =
  match (some_lt, some_gt) with
  | false, false -> Order.Equal
  | true, false -> Order.Before
  | false, true -> Order.After
  | true, true -> Order.Concurrent

(* The epoch [count] at [pid] ([count > 0]) against a dense [b]: the
   epoch exceeds [b] only at [pid], and is below [b] wherever [b] is
   nonzero elsewhere. *)
let compare_epoch_dense ~pid ~count b =
  let v = b.vec in
  let some_gt = count > v.(pid) in
  let some_lt = ref (count < v.(pid)) in
  let i = ref 0 in
  while (not !some_lt) && !i < b.dim do
    if !i <> pid && v.(!i) > 0 then some_lt := true;
    incr i
  done;
  order_of ~some_lt:!some_lt ~some_gt

(* Algorithm 3: componentwise comparison, decided in a single pass by
   tracking whether some component of [a] is below [b] and some above —
   with an early exit as soon as both are set (the verdict is already
   [Concurrent]), and O(1) decisions whenever both operands are
   epochs. *)
let compare a b : Order.t =
  check_dim a b "compare";
  if is_epoch a then
    if is_epoch b then
      if a.count = 0 && b.count = 0 then Order.Equal
      else if a.count = 0 then Order.Before
      else if b.count = 0 then Order.After
      else if a.pid = b.pid then
        if a.count = b.count then Order.Equal
        else if a.count < b.count then Order.Before
        else Order.After
      else Order.Concurrent
    else if a.count = 0 then if is_zero b then Order.Equal else Order.Before
    else compare_epoch_dense ~pid:a.pid ~count:a.count b
  else if is_epoch b then
    Order.flip
      (if b.count = 0 then if is_zero a then Order.Equal else Order.Before
       else compare_epoch_dense ~pid:b.pid ~count:b.count a)
  else begin
    let va = a.vec and vb = b.vec in
    let some_lt = ref false and some_gt = ref false in
    let i = ref 0 in
    while !i < a.dim && not (!some_lt && !some_gt) do
      let x = va.(!i) and y = vb.(!i) in
      if x < y then some_lt := true else if x > y then some_gt := true;
      incr i
    done;
    order_of ~some_lt:!some_lt ~some_gt:!some_gt
  end

let leq a b =
  check_dim a b "leq";
  if is_epoch a then a.count = 0 || a.count <= get b a.pid
  else
    match compare a b with
    | Order.Equal | Order.Before -> true
    | Order.After | Order.Concurrent -> false

let concurrent a b = Order.concurrent (compare a b)

(* One walk when both clocks are dense: raise [into] where [src] is
   higher and note where [into] is higher. Otherwise [leq], then the
   merge. *)
let merge_into_equal ~into src =
  check_dim into src "merge_into_equal";
  if is_dense into && is_dense src then begin
    let v = into.vec and s = src.vec in
    let raised = ref false and above = ref false in
    for i = 0 to into.dim - 1 do
      let x = s.(i) and y = v.(i) in
      if x > y then begin
        v.(i) <- x;
        raised := true
      end
      else if y > x then above := true
    done;
    if !raised then changed into;
    not !above
  end
  else begin
    let covered = leq into src in
    merge_into ~into src;
    covered
  end

(* Wire/storage accounting is representation-independent: a clock always
   costs [dim] words on the wire and in the §5.1 storage model. *)
let size_words t = t.dim

let snapshot = copy

(* the dense array keeps its capacity: a warmed-up scratch clock never
   allocates again *)
let reset t =
  t.pid <- 0;
  t.count <- 0;
  changed t

let check_slice t w off name =
  if off < 0 || off + t.dim > Array.length w then
    invalid_arg (Printf.sprintf "Vector_clock.%s: slice out of bounds" name)

let load_words t w ~off =
  check_slice t w off "load_words";
  changed t;
  let nonzeros = ref 0 and last = ref 0 in
  for i = 0 to t.dim - 1 do
    let x = w.(off + i) in
    if x < 0 then invalid_arg "Vector_clock.load_words: negative entry";
    if x <> 0 then begin
      incr nonzeros;
      last := i
    end
  done;
  if !nonzeros <= 1 then begin
    t.pid <- (if !nonzeros = 1 then !last else 0);
    t.count <- (if !nonzeros = 1 then w.(off + !last) else 0)
  end
  else begin
    ensure_vec t;
    copy_words w ~src_off:off t.vec t.dim;
    t.pid <- dense
  end

let store_words t w ~off =
  check_slice t w off "store_words";
  if is_dense t then Array.blit t.vec 0 w off t.dim
  else begin
    Array.fill w off t.dim 0;
    if t.count > 0 then w.(off + t.pid) <- t.count
  end

let to_array t =
  let a = Array.make t.dim 0 in
  store_words t a ~off:0;
  a

let merge_words ~into w ~off =
  check_slice into w off "merge_words";
  let nonzeros = ref 0 and last = ref 0 in
  for i = 0 to into.dim - 1 do
    let x = w.(off + i) in
    if x < 0 then invalid_arg "Vector_clock.merge_words: negative entry";
    if x <> 0 then begin
      incr nonzeros;
      last := i
    end
  done;
  if !nonzeros = 1 then bump into !last w.(off + !last)
  else if !nonzeros > 1 then begin
    promote into;
    let v = into.vec and raised = ref false in
    for i = 0 to into.dim - 1 do
      if w.(off + i) > v.(i) then begin
        v.(i) <- w.(off + i);
        raised := true
      end
    done;
    if !raised then changed into
  end

(* The clock's one text form, [<a,b,c>]: the race CSV, the explorer's
   fingerprints and every printer go through here. *)
let write buf c =
  Buffer.add_char buf '<';
  for i = 0 to c.dim - 1 do
    if i > 0 then Buffer.add_char buf ',';
    Dsm_obs.Json_writer.int buf (entry c i)
  done;
  Buffer.add_char buf '>'

let to_string c =
  let buf = Buffer.create (2 + (2 * c.dim)) in
  write buf c;
  Buffer.contents buf

let pp ppf c = Format.pp_print_string ppf (to_string c)
