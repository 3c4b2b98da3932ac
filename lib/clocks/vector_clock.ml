(* One representation with two promotions: a clock that has only ever
   been advanced by a single process is kept as a compact {e epoch} — the
   FastTrack-style [(pid, count)] pair, denoting the vector that is
   [count] at [pid] and 0 elsewhere. The first cross-process merge or
   tick promotes it to sorted parallel [(pid, tick)] arrays holding only
   the nonzero components, and past [threshold] active entries on to a
   dense [int array]. The common single-writer access then costs O(1)
   and allocates nothing; compare/merge on two sparse operands is a merge
   scan over the sorted pids — O(active), not O(n) — which is what lets
   detection scale past the paper's ~10 processes (§5.1) without
   shrinking the worst-case clock below Charron-Bost's n entries (§4.3).
   The abstract value, and hence every detection verdict, is that of the
   dense vector.

   [pid] also names the live representation: an epoch's owner (>= 0),
   or [sparse] or [dense] for the other two. The sparse key/value
   arrays and the dense array are allocated on first use and retained
   whatever the clock holds later ([reset], [load_words], [assign]), so
   a warmed-up scratch clock or overwritten copy never allocates again.
   The canonical zero epoch is [count = 0] with [pid = 0]. Sparse values
   are always positive: zero components are simply absent.

   [gen] counts the changes that are not ticks: a merge that raises a
   component, [assign], [set], [reset], [load_words]. A tick leaves it
   alone, so a clock whose [gen] still reads what it read at some
   earlier moment has changed since only through [tick]s. Promotions
   change the representation, not the value, and leave it alone too. *)

type t = {
  mutable pid : int;  (* epoch owner, or [sparse] or [dense] *)
  mutable count : int;  (* epoch count, 0 = the zero clock; stale otherwise *)
  dim : int;
  mutable vec : int array;  (* dense components; == no_vec until allocated *)
  mutable nactive : int;  (* live entries in keys/vals *)
  mutable keys : int array;  (* sorted pids; == no_vec until allocated *)
  mutable vals : int array;  (* ticks, parallel to keys; all > 0 *)
  mutable gen : int;  (* non-tick changes so far *)
}

let no_vec : int array = [||]

(* More than [max 4 (n/8)] active writers and the sorted-pair scans stop
   paying for themselves against a flat array — promote. Computed from
   [dim] rather than kept in every clock. *)
let threshold t = max 4 (t.dim lsr 3)

let sparse = -1

let dense = -2

let is_dense t = t.pid = dense

let is_sparse t = t.pid = sparse

let is_epoch t = t.pid >= 0

let create ~n =
  if n <= 0 then invalid_arg "Vector_clock.create: dimension must be positive";
  {
    pid = 0;
    count = 0;
    dim = n;
    vec = no_vec;
    nactive = 0;
    keys = no_vec;
    vals = no_vec;
    gen = 0;
  }

let dim t = t.dim

let generation t = t.gen

let changed t = t.gen <- t.gen + 1

(* ---------- sparse plumbing ---------- *)

(* Index of [p] in the sorted key array, or [-(insertion point) - 1]. *)
let sparse_find t p =
  let lo = ref 0 and hi = ref t.nactive in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.keys.(mid) < p then lo := mid + 1 else hi := mid
  done;
  if !lo < t.nactive && t.keys.(!lo) = p then !lo else - !lo - 1

let sparse_get t p =
  let i = sparse_find t p in
  if i >= 0 then t.vals.(i) else 0

(* Capacity is bounded by the promotion threshold, so one allocation
   (retained across [reset]) serves the clock's whole lifetime. *)
let sparse_ensure_arrays t =
  if t.keys == no_vec then begin
    let cap = threshold t + 1 in
    t.keys <- Array.make cap 0;
    t.vals <- Array.make cap 0
  end

(* The dense array, allocated once and kept for the clock's lifetime.
   Its contents are stale outside dense mode. *)
let ensure_vec t = if t.vec == no_vec then t.vec <- Array.make t.dim 0

(* [len] words from [src.(src_off)] to [dst.(0)], [src != dst]. A loop,
   not [Array.blit]: a clock's arrays soon live in the major heap, where
   the runtime's blit runs the write barrier on every word; an [int
   array] store needs none. Every caller has checked both ranges (equal
   dimensions, a checked slice, [nactive] within the pair capacity). *)
let copy_words (src : int array) ~src_off (dst : int array) len =
  for i = 0 to len - 1 do
    Array.unsafe_set dst i (Array.unsafe_get src (src_off + i))
  done

(* ---------- promotions ---------- *)

(* Sparse/epoch -> dense. One-way except through [reset], [load_words]
   and [assign], which re-derive or copy the representation. *)
let promote t =
  if not (is_dense t) then begin
    if t.vec == no_vec then t.vec <- Array.make t.dim 0
    else Array.fill t.vec 0 t.dim 0;
    let v = t.vec in
    if is_sparse t then
      for i = 0 to t.nactive - 1 do
        v.(t.keys.(i)) <- t.vals.(i)
      done
    else if t.count > 0 then v.(t.pid) <- t.count;
    t.nactive <- 0;
    t.pid <- dense
  end

(* Epoch -> sparse, the cross-process promotion: carry the epoch entry
   over. *)
let promote_sparse t =
  sparse_ensure_arrays t;
  t.nactive <- 0;
  if t.count > 0 then begin
    t.keys.(0) <- t.pid;
    t.vals.(0) <- t.count;
    t.nactive <- 1
  end;
  t.pid <- sparse

(* Set component [p] to [v > 0] in sparse mode, inserting and
   dense-promoting past the threshold as needed. *)
let sparse_set t p v =
  let i = sparse_find t p in
  if i >= 0 then t.vals.(i) <- v
  else if t.nactive >= threshold t then begin
    promote t;
    t.vec.(p) <- v
  end
  else begin
    let at = -i - 1 in
    Array.blit t.keys at t.keys (at + 1) (t.nactive - at);
    Array.blit t.vals at t.vals (at + 1) (t.nactive - at);
    t.keys.(at) <- p;
    t.vals.(at) <- v;
    t.nactive <- t.nactive + 1
  end

(* Componentwise max against a single [(p, v)] entry, [v > 0] — the
   building block for epoch sources and word-slice merges. A raise
   counts as a change. *)
let rec bump t p v =
  if is_dense t then begin
    if v > t.vec.(p) then begin
      t.vec.(p) <- v;
      changed t
    end
  end
  else if is_sparse t then begin
    let i = sparse_find t p in
    if i >= 0 then begin
      if v > t.vals.(i) then begin
        t.vals.(i) <- v;
        changed t
      end
    end
    else if t.nactive >= threshold t then begin
      promote t;
      t.vec.(p) <- v;
      changed t
    end
    else begin
      let at = -i - 1 in
      Array.blit t.keys at t.keys (at + 1) (t.nactive - at);
      Array.blit t.vals at t.vals (at + 1) (t.nactive - at);
      t.keys.(at) <- p;
      t.vals.(at) <- v;
      t.nactive <- t.nactive + 1;
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
    promote_sparse t;
    bump t p v
  end

(* Copies the live representation's arrays only. *)
let copy t =
  {
    pid = t.pid;
    count = t.count;
    dim = t.dim;
    vec = (if is_dense t then Array.copy t.vec else no_vec);
    nactive = t.nactive;
    keys = (if is_sparse t then Array.copy t.keys else no_vec);
    vals = (if is_sparse t then Array.copy t.vals else no_vec);
    gen = 0;
  }

(* Adopt the compact representation [a] warrants: <=1 nonzero -> epoch;
   <= threshold nonzeros -> sorted pairs; otherwise dense. *)
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
  if !nonzeros <= 1 then begin
    if !nonzeros = 1 then begin
      t.pid <- !last;
      t.count <- a.(!last)
    end;
    t
  end
  else if !nonzeros <= threshold t then begin
    sparse_ensure_arrays t;
    let k = ref 0 in
    for i = 0 to n - 1 do
      if a.(i) <> 0 then begin
        t.keys.(!k) <- i;
        t.vals.(!k) <- a.(i);
        incr k
      end
    done;
    t.nactive <- !k;
    t.pid <- sparse;
    t
  end
  else begin
    t.vec <- Array.copy a;
    t.pid <- dense;
    t
  end

(* Component [i], unchecked. *)
let get c i =
  if is_dense c then c.vec.(i)
  else if is_sparse c then sparse_get c i
  else if i = c.pid then c.count
  else 0

let entry c i =
  if i < 0 || i >= c.dim then invalid_arg "Vector_clock.entry";
  get c i

let check_dim a b name =
  if a.dim <> b.dim then
    invalid_arg (Printf.sprintf "Vector_clock.%s: dimension mismatch" name)

(* ---------- live-entry walkers ---------- *)

(* The nonzero components in ascending pid order: one entry for an
   epoch, the sorted pairs for a sparse clock, one scan for a dense
   one. *)
let iter_active f c =
  if is_dense c then
    for i = 0 to c.dim - 1 do
      let x = c.vec.(i) in
      if x <> 0 then f i x
    done
  else if is_sparse c then
    for j = 0 to c.nactive - 1 do
      f c.keys.(j) c.vals.(j)
    done
  else if c.count > 0 then f c.pid c.count

(* Live entries of a non-dense clock, addressed by rank. *)
let live_len c = if is_sparse c then c.nactive else if c.count > 0 then 1 else 0

let live_key c j = if is_sparse c then c.keys.(j) else c.pid

let live_val c j = if is_sparse c then c.vals.(j) else c.count

(* Component [i] becomes [x], raised or lowered. Lowering never demotes
   a sparse or dense clock (an epoch whose entry drops to 0 is the zero
   epoch again); raising promotes as a tick would. *)
let set c i x =
  if i < 0 || i >= c.dim then invalid_arg "Vector_clock.set: index out of range";
  if x < 0 then invalid_arg "Vector_clock.set: negative entry";
  changed c;
  if is_dense c then c.vec.(i) <- x
  else if is_sparse c then begin
    if x > 0 then sparse_set c i x
    else
      let j = sparse_find c i in
      if j >= 0 then begin
        Array.blit c.keys (j + 1) c.keys j (c.nactive - j - 1);
        Array.blit c.vals (j + 1) c.vals j (c.nactive - j - 1);
        c.nactive <- c.nactive - 1
      end
  end
  else if c.count = 0 || c.pid = i then begin
    c.pid <- (if x > 0 then i else 0);
    c.count <- x
  end
  else if x > 0 then begin
    promote_sparse c;
    sparse_set c i x
  end

let assign ~into src =
  check_dim into src "assign";
  if is_sparse src then begin
    sparse_ensure_arrays into;
    copy_words src.keys ~src_off:0 into.keys src.nactive;
    copy_words src.vals ~src_off:0 into.vals src.nactive;
    into.nactive <- src.nactive
  end
  else begin
    if is_dense src then begin
      ensure_vec into;
      copy_words src.vec ~src_off:0 into.vec into.dim
    end
    else into.count <- src.count;
    into.nactive <- 0
  end;
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
   arrays directly; a dense and a compact clock (a transition, rare on
   one edge) walk the dimension through [get]; two compact clocks
   merge-scan their sorted entries, O(active v + active since). Sizing
   ([w == no_vec]) also counts the nonzero components of [v] and
   returns both counts packed in one immediate int; writing lays the
   [(index, value)] pairs out at [w.(off)..]. With [advance], [since]
   is left equal to [v] — a dense [since] is patched at the changed
   components in the same pass, a compact one takes [v]'s
   representation afterwards. No closure is called per component. *)
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
    let an = live_len v and bn = live_len since in
    let i = ref 0 and j = ref 0 in
    k := an;
    while !i < an || !j < bn do
      if !j >= bn || (!i < an && live_key v !i < live_key since !j) then begin
        incr d;
        slot := put_pair w !slot (live_key v !i) (live_val v !i);
        incr i
      end
      else if !i >= an || live_key since !j < live_key v !i then begin
        incr d;
        slot := put_pair w !slot (live_key since !j) 0;
        incr j
      end
      else begin
        let x = live_val v !i in
        if x <> live_val since !j then begin
          incr d;
          slot := put_pair w !slot (live_key v !i) x
        end;
        incr i;
        incr j
      end
    done;
    if advance then assign ~into:since v
  end;
  if advance && !d > 0 then changed since;
  if w == no_vec then (!k * (v.dim + 1)) + !d else !d

let diff_sizes ~advance ~since v = diff_walk ~since v no_vec ~off:0 ~advance

let write_diff ~since v w ~off =
  if w == no_vec then invalid_arg "Vector_clock.write_diff: empty buffer";
  ignore (diff_walk ~since v w ~off ~advance:false)

let is_zero c =
  if is_dense c then Array.for_all (fun x -> x = 0) c.vec
  else if is_sparse c then c.nactive = 0
  else c.count = 0

(* Nonzero components currently materialized — the quantity the sparse
   scans are linear in (introspection for tests and benchmarks). *)
let active_entries c =
  if is_dense c then begin
    let k = ref 0 in
    for i = 0 to c.dim - 1 do
      if c.vec.(i) <> 0 then incr k
    done;
    !k
  end
  else if is_sparse c then c.nactive
  else if c.count > 0 then 1
  else 0

let tick c ~me =
  if me < 0 || me >= c.dim then invalid_arg "Vector_clock.tick";
  if is_dense c then c.vec.(me) <- c.vec.(me) + 1
  else if is_sparse c then begin
    let i = sparse_find c me in
    if i >= 0 then c.vals.(i) <- c.vals.(i) + 1 else sparse_set c me 1
  end
  else if c.count = 0 then begin
    c.pid <- me;
    c.count <- 1
  end
  else if c.pid = me then c.count <- c.count + 1
  else begin
    promote_sparse c;
    sparse_set c me 1
  end

(* Merge a sparse [src] into a sparse [into] by a single backwards merge
   scan over the two sorted key runs — O(active + active), in place, no
   allocation. The union size is counted first, with whether [src]
   raises a shared component and whether [into] is above [src]
   anywhere, which is the result: [true] unless [into <= src] held.
   Past the threshold the destination promotes to dense instead. *)
let sparse_merge_sparse ~into src =
  let an = into.nactive and bn = src.nactive in
  (* union cardinality *)
  let union = ref 0 and raises = ref false and above = ref false in
  let i = ref 0 and j = ref 0 in
  while !i < an || !j < bn do
    (if !j >= bn then begin
       above := true;
       incr i
     end
     else if !i >= an then incr j
     else
       let ka = into.keys.(!i) and kb = src.keys.(!j) in
       if ka < kb then begin
         above := true;
         incr i
       end
       else if kb < ka then incr j
       else begin
         let x = src.vals.(!j) and y = into.vals.(!i) in
         if x > y then raises := true else if y > x then above := true;
         incr i;
         incr j
       end);
    incr union
  done;
  if !raises || !union > an then changed into;
  if !union > threshold into then begin
    promote into;
    for k = 0 to bn - 1 do
      let p = src.keys.(k) and v = src.vals.(k) in
      if v > into.vec.(p) then into.vec.(p) <- v
    done
  end
  else begin
    (* fill from the back: reading positions never overtake writes *)
    let i = ref (an - 1) and j = ref (bn - 1) and k = ref (!union - 1) in
    while !j >= 0 do
      if !i >= 0 && into.keys.(!i) > src.keys.(!j) then begin
        into.keys.(!k) <- into.keys.(!i);
        into.vals.(!k) <- into.vals.(!i);
        decr i
      end
      else if !i >= 0 && into.keys.(!i) = src.keys.(!j) then begin
        into.keys.(!k) <- into.keys.(!i);
        into.vals.(!k) <- max into.vals.(!i) src.vals.(!j);
        decr i;
        decr j
      end
      else begin
        into.keys.(!k) <- src.keys.(!j);
        into.vals.(!k) <- src.vals.(!j);
        decr j
      end;
      decr k
    done;
    into.nactive <- !union
  end;
  !above

let merge_into ~into src =
  check_dim into src "merge_into";
  if is_epoch src then begin
    if src.count > 0 then bump into src.pid src.count
  end
  else if is_sparse src then begin
    if is_dense into then begin
      let raised = ref false in
      for k = 0 to src.nactive - 1 do
        let p = src.keys.(k) and v = src.vals.(k) in
        if v > into.vec.(p) then begin
          into.vec.(p) <- v;
          raised := true
        end
      done;
      if !raised then changed into
    end
    else if is_sparse into then ignore (sparse_merge_sparse ~into src)
    else begin
      (* epoch destination: take the cross-process (sparse) shape first *)
      promote_sparse into;
      ignore (sparse_merge_sparse ~into src)
    end
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

(* [a] is the epoch [count] at [pid] (count > 0); [b] is sparse. [a]
   exceeds [b] only at [pid]; [a] is below [b] wherever [b] holds any
   other positive entry. O(log active). *)
let compare_epoch_sparse ~pid ~count b =
  let bv = sparse_get b pid in
  let some_gt = count > bv in
  let others = b.nactive - if bv > 0 then 1 else 0 in
  let some_lt = count < bv || others > 0 in
  order_of ~some_lt ~some_gt

(* Merge scan over two sorted runs with the Concurrent early exit:
   a key only one side holds is a strict inequality on that side. *)
let compare_sparse_sparse a b =
  let an = a.nactive and bn = b.nactive in
  let some_lt = ref false and some_gt = ref false in
  let i = ref 0 and j = ref 0 in
  while (!i < an || !j < bn) && not (!some_lt && !some_gt) do
    if !j >= bn then begin
      some_gt := true;
      incr i
    end
    else if !i >= an then begin
      some_lt := true;
      incr j
    end
    else
      let ka = a.keys.(!i) and kb = b.keys.(!j) in
      if ka < kb then begin
        some_gt := true;
        incr i
      end
      else if kb < ka then begin
        some_lt := true;
        incr j
      end
      else begin
        let x = a.vals.(!i) and y = b.vals.(!j) in
        if x < y then some_lt := true else if x > y then some_gt := true;
        incr i;
        incr j
      end
  done;
  order_of ~some_lt:!some_lt ~some_gt:!some_gt

(* Sparse [a] against dense [b]: walk the dense array once, keeping a
   cursor into [a]'s sorted keys. *)
let compare_sparse_dense a b =
  let some_lt = ref false and some_gt = ref false in
  let i = ref 0 in
  let d = ref 0 in
  while !d < a.dim && not (!some_lt && !some_gt) do
    let av =
      if !i < a.nactive && a.keys.(!i) = !d then begin
        let v = a.vals.(!i) in
        incr i;
        v
      end
      else 0
    in
    let bv = b.vec.(!d) in
    if av < bv then some_lt := true else if av > bv then some_gt := true;
    incr d
  done;
  order_of ~some_lt:!some_lt ~some_gt:!some_gt

(* Algorithm 3: componentwise comparison, decided in a single pass by
   tracking whether some component of [a] is below [b] and some above —
   with an early exit as soon as both are set (the verdict is already
   [Concurrent]), O(1) decisions whenever an epoch operand allows, and
   O(active) merge scans on sparse operands. *)
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
    else if is_sparse b then compare_epoch_sparse ~pid:a.pid ~count:a.count b
    else begin
      (* [a] is [a.count] at [a.pid] and 0 elsewhere: [a] exceeds [b] only
         at [a.pid]; [a] is below [b] wherever [b] is nonzero elsewhere. *)
      let v = b.vec in
      let some_gt = a.count > v.(a.pid) in
      let some_lt = ref (a.count < v.(a.pid)) in
      let i = ref 0 in
      while (not !some_lt) && !i < b.dim do
        if !i <> a.pid && v.(!i) > 0 then some_lt := true;
        incr i
      done;
      order_of ~some_lt:!some_lt ~some_gt
    end
  else if is_epoch b then
    Order.flip
      (if b.count = 0 then if is_zero a then Order.Equal else Order.Before
       else if is_sparse a then
         compare_epoch_sparse ~pid:b.pid ~count:b.count a
       else begin
         let v = a.vec in
         let some_gt = b.count > v.(b.pid) in
         let some_lt = ref (b.count < v.(b.pid)) in
         let i = ref 0 in
         while (not !some_lt) && !i < a.dim do
           if !i <> b.pid && v.(!i) > 0 then some_lt := true;
           incr i
         done;
         order_of ~some_lt:!some_lt ~some_gt
       end)
  else if is_sparse a then
    if is_sparse b then compare_sparse_sparse a b else compare_sparse_dense a b
  else if is_sparse b then Order.flip (compare_sparse_dense b a)
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
  if is_epoch a then
    if a.count = 0 then true
    else if is_epoch b then a.pid = b.pid && a.count <= b.count
    else if is_sparse b then a.count <= sparse_get b a.pid
    else a.count <= b.vec.(a.pid)
  else if is_sparse a then begin
    (* every live component of [a] must be covered by [b]: O(active) *)
    let ok = ref true and i = ref 0 in
    while !ok && !i < a.nactive do
      if a.vals.(!i) > entry b a.keys.(!i) then ok := false;
      incr i
    done;
    !ok
  end
  else
    match compare a b with
    | Order.Equal | Order.Before -> true
    | Order.After | Order.Concurrent -> false

let concurrent a b = Order.concurrent (compare a b)

(* One walk when both clocks are dense or both sparse: raise [into]
   where [src] is higher and note where [into] is higher. Otherwise
   [leq], then the merge. *)
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
  else if is_sparse into && is_sparse src then
    not (sparse_merge_sparse ~into src)
  else begin
    let covered = leq into src in
    merge_into ~into src;
    covered
  end

(* Wire/storage accounting is representation-independent: a clock always
   costs [dim] words on the wire and in the §5.1 storage model. *)
let size_words t = t.dim

let snapshot = copy

(* the arrays keep their capacity: a warmed-up scratch clock never
   allocates again *)
let reset t =
  t.pid <- 0;
  t.count <- 0;
  t.nactive <- 0;
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
    t.nactive <- 0;
    t.pid <- (if !nonzeros = 1 then !last else 0);
    t.count <- (if !nonzeros = 1 then w.(off + !last) else 0)
  end
  else if !nonzeros <= threshold t then begin
    sparse_ensure_arrays t;
    let k = ref 0 in
    for i = 0 to t.dim - 1 do
      let x = w.(off + i) in
      if x <> 0 then begin
        t.keys.(!k) <- i;
        t.vals.(!k) <- x;
        incr k
      end
    done;
    t.nactive <- !k;
    t.pid <- sparse
  end
  else begin
    ensure_vec t;
    copy_words w ~src_off:off t.vec t.dim;
    t.nactive <- 0;
    t.pid <- dense
  end

let store_words t w ~off =
  check_slice t w off "store_words";
  if is_dense t then Array.blit t.vec 0 w off t.dim
  else begin
    Array.fill w off t.dim 0;
    if is_sparse t then
      for i = 0 to t.nactive - 1 do
        w.(off + t.keys.(i)) <- t.vals.(i)
      done
    else if t.count > 0 then w.(off + t.pid) <- t.count
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
  if !nonzeros = 0 then ()
  else if !nonzeros = 1 then bump into !last w.(off + !last)
  else if is_dense into || !nonzeros > threshold into then begin
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
  else
    (* stays within the sparse budget: bump each nonzero component *)
    for i = 0 to into.dim - 1 do
      if w.(off + i) > 0 then bump into i w.(off + i)
    done

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
