type wire = int array

let word_bytes = 8

let bytes_of_words w = w * word_bytes

(* ---------- payload writers, checks and fills ----------

   Each payload has one writer, laying it out at [w.(off)..], and one
   check, which raises [Invalid_argument] on a malformed payload at
   [off] and returns its size; a fill then writes the checked payload
   into a clock. The unframed codecs use offset 0, the piggyback frame
   offset 2. Checks and fills walk the payload's pairs, O(pairs).
   Writers walk the clock: O(1) for an epoch, one O(n) scan for a
   clock held dense, whichever payload they write. *)

let dense_len v = Vector_clock.dim v + 1

let pairs_len k = 2 + (2 * k)

let write_dense w off v =
  w.(off) <- Vector_clock.dim v;
  Vector_clock.store_words v w ~off:(off + 1)

(* Header [n; k], then the [k] live [(pid, tick)] pairs. *)
let write_sparse w off ~k v =
  w.(off) <- Vector_clock.dim v;
  w.(off + 1) <- k;
  let slot = ref (off + 2) in
  Vector_clock.iter_active
    (fun i x ->
      w.(!slot) <- i;
      w.(!slot + 1) <- x;
      slot := !slot + 2)
    v

(* Header [n; d], then the [d] changed [(index, value)] pairs. *)
let write_delta w off ~since ~d v =
  w.(off) <- Vector_clock.dim v;
  w.(off + 1) <- d;
  Vector_clock.write_diff ~since v w ~off:(off + 2)

(* The dimension. Negative entries are left to [Vector_clock.load_words],
   which rejects them before it writes. *)
let check_dense w off =
  let len = Array.length w - off in
  if len = 0 then invalid_arg "Codec.decode_vector: empty buffer";
  let n = w.(off) in
  if n <= 0 || len <> n + 1 then
    invalid_arg "Codec.decode_vector: malformed buffer";
  n

(* The pair count; the dimension is [w.(off)]. *)
let check_sparse w off =
  let len = Array.length w - off in
  if len < 2 then invalid_arg "Codec.decode_vector_sparse: truncated buffer";
  let n = w.(off) and k = w.(off + 1) in
  if n <= 0 || k < 0 || k > n then
    invalid_arg "Codec.decode_vector_sparse: malformed header";
  if len < pairs_len k then
    invalid_arg "Codec.decode_vector_sparse: truncated buffer";
  if len > pairs_len k then
    invalid_arg "Codec.decode_vector_sparse: trailing words";
  let prev = ref (-1) in
  for j = 0 to k - 1 do
    let pid = w.(off + 2 + (2 * j)) and tick = w.(off + 3 + (2 * j)) in
    if pid <= !prev || pid >= n then
      invalid_arg "Codec.decode_vector_sparse: pids not ascending in range";
    if tick <= 0 then
      invalid_arg "Codec.decode_vector_sparse: non-positive tick";
    prev := pid
  done;
  k

(* The override count of a delta against a base of dimension [n]. *)
let check_delta ~n w off =
  let len = Array.length w - off in
  if len < 2 then invalid_arg "Codec.decode_vector_delta: empty";
  let count = w.(off + 1) in
  if w.(off) <> n || count < 0 || len <> pairs_len count then
    invalid_arg "Codec.decode_vector_delta: malformed buffer";
  let prev = ref (-1) in
  for j = 0 to count - 1 do
    let i = w.(off + 2 + (2 * j)) and x = w.(off + 3 + (2 * j)) in
    if i <= !prev || i >= n || x < 0 then
      invalid_arg "Codec.decode_vector_delta: malformed entry";
    prev := i
  done;
  count

(* Sets the [count] pairs of a pairs payload into [into], in place:
   O(count) on a dense clock. A delta overrides components of the base
   [into] holds, and a zero override is legal (a delta may lower a
   component). Sparse pairs set into a zero clock build the
   representation [of_array] would pick. *)
let patch into w off count =
  for j = 0 to count - 1 do
    Vector_clock.set into w.(off + 2 + (2 * j)) w.(off + 3 + (2 * j))
  done

(* ---------- unframed codecs ---------- *)

let encode_vector v =
  let w = Array.make (dense_len v) 0 in
  write_dense w 0 v;
  w

let decode_vector w =
  let v = Vector_clock.create ~n:(check_dense w 0) in
  Vector_clock.load_words v w ~off:1;
  v

let encode_matrix m =
  let n = Matrix_clock.dim m in
  let w = Array.make ((n * n) + 2) 0 in
  w.(0) <- n;
  w.(1) <- Matrix_clock.owner m;
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      w.(2 + (i * n) + j) <- Matrix_clock.entry m i j
    done
  done;
  w

let varint_add buf x =
  let rec go x =
    if x < 0x80 then Buffer.add_char buf (Char.chr x)
    else begin
      Buffer.add_char buf (Char.chr (0x80 lor (x land 0x7f)));
      go (x lsr 7)
    end
  in
  if x < 0 then invalid_arg "Codec.varint: negative" else go x

let encode_vector_varint v =
  let buf = Buffer.create 16 in
  varint_add buf (Vector_clock.dim v);
  Array.iter (varint_add buf) (Vector_clock.to_array v);
  Buffer.to_bytes buf

let encode_vector_delta ~since v =
  if Vector_clock.dim since <> Vector_clock.dim v then
    invalid_arg "Codec.encode_vector_delta: dimension mismatch";
  let d =
    Vector_clock.diff_sizes ~advance:false ~since v mod (Vector_clock.dim v + 1)
  in
  let w = Array.make (pairs_len d) 0 in
  write_delta w 0 ~since ~d v;
  w

(* ---------- self-framed piggyback ---------- *)

(* [tag; seq; payload...] where tag selects the payload codec (0 dense,
   1 sparse, 2 delta-since-last-on-this-edge) and seq is the per-edge
   message number the sender's cache was at. Dense and sparse payloads
   are self-contained, so any seq decodes; a delta payload is only
   meaningful against the receiver's mirror of the sender's per-edge
   cache, so the decoder insists the seq is exactly the one it expects
   and rejects anything else — the directed defence against FIFO-bypass
   reordering. *)

type piggyback_mode = Dense | Sparse | Delta

type tally = { mutable dense : int; mutable sparse : int; mutable delta : int }

let tally () = { dense = 0; sparse = 0; delta = 0 }

(* The payload codec of a frame of dimension [n], as its tag, from [k]
   live components and [d] changed since the base, [d = n] without one
   (the walk returns them packed as [sizes = k * (n + 1) + d]). A
   forced mode is its own codec; [Delta] takes a delta only if it is
   strictly shorter than both self-contained forms (so never without a
   base), and sparse wins a tie with dense. *)
let choose ~mode ~n ~k ~d =
  match mode with
  | Dense -> 0
  | Sparse -> 1
  | Delta ->
      if pairs_len d < min (pairs_len k) (n + 1) then 2
      else if pairs_len k <= n + 1 then 1
      else 0

let payload_len ~n ~k ~d = function
  | 0 -> n + 1
  | 1 -> pairs_len k
  | _ -> pairs_len d

(* [sizes] with no base to diff against. *)
let baseless_sizes v =
  let n = Vector_clock.dim v in
  (Vector_clock.active_entries v * (n + 1)) + n

let encode_piggyback ~mode ~seq ?since v =
  if seq < 0 then invalid_arg "Codec.encode_piggyback: negative seq";
  let n = Vector_clock.dim v in
  let sizes =
    match (mode, since) with
    | Delta, Some s when Vector_clock.dim s = n ->
        Vector_clock.diff_sizes ~advance:false ~since:s v
    | _ -> baseless_sizes v
  in
  let k = sizes / (n + 1) and d = sizes mod (n + 1) in
  let tag = choose ~mode ~n ~k ~d in
  let w = Array.make (2 + payload_len ~n ~k ~d tag) 0 in
  w.(0) <- tag;
  w.(1) <- seq;
  (match (tag, since) with
  | 2, Some s -> write_delta w 2 ~since:s ~d v
  | 0, _ -> write_dense w 2 v
  | _ -> write_sparse w 2 ~k v);
  w

(* A priced frame, in one immediate int: the live components [k] of
   the clock it carries from bit 32, its length in words from bit 2,
   its tag in the low two bits. *)
let len_mask = (1 lsl 30) - 1

let priced ~tally ~mode ~n ~k ~d =
  let tag = choose ~mode ~n ~k ~d in
  (match tag with
  | 0 -> tally.dense <- tally.dense + 1
  | 1 -> tally.sparse <- tally.sparse + 1
  | _ -> tally.delta <- tally.delta + 1);
  (k lsl 32) lor ((2 + payload_len ~n ~k ~d tag) lsl 2) lor tag

let size_piggyback_edge ~tally ~mode ~cache v =
  let n = Vector_clock.dim v in
  if Vector_clock.dim cache <> n then
    invalid_arg "Codec.size_piggyback_edge: dimension mismatch";
  let sizes =
    match mode with
    | Delta -> Vector_clock.diff_sizes ~advance:true ~since:cache v
    | Dense | Sparse -> baseless_sizes v
  in
  priced ~tally ~mode ~n ~k:(sizes / (n + 1)) ~d:(sizes mod (n + 1))

let frame_live sized = sized lsr 32

(* [cache] holds [v] but perhaps at [own], which only ticks raised:
   the diff is that one component or nothing, and [v] has one more live
   component than the last frame's clock when [own] left zero. *)
let size_piggyback_ticked ~tally ~cache ~last ~own v =
  let n = Vector_clock.dim v in
  let x = Vector_clock.entry v own and y = Vector_clock.entry cache own in
  let k = frame_live last + if y = 0 && x > 0 then 1 else 0 in
  let d = if x <> y then 1 else 0 in
  if d = 1 then Vector_clock.set cache own x;
  priced ~tally ~mode:Delta ~n ~k ~d

let frame_words sized = (sized lsr 2) land len_mask

let header ~seq sized = (seq * 4) + (sized land 3)

let check_header ~expect_seq h =
  if h < 0 then invalid_arg "Codec.check_header: negative seq";
  let seq = h lsr 2 in
  (match h land 3 with
  | 0 | 1 -> ()
  | 2 ->
      if expect_seq < 0 then
        invalid_arg "Codec.check_header: delta without base";
      if seq <> expect_seq then
        invalid_arg "Codec.check_header: out-of-sequence delta"
  | _ -> invalid_arg "Codec.check_header: unknown tag");
  seq + 1

let decode_piggyback ~expect_seq ?base w =
  if Array.length w < 2 then
    invalid_arg "Codec.decode_piggyback: truncated frame";
  let tag = w.(0) and seq = w.(1) in
  if tag < 0 || tag > 2 then invalid_arg "Codec.decode_piggyback: unknown tag";
  if seq < 0 then invalid_arg "Codec.decode_piggyback: negative seq";
  let v =
    match tag with
    | 0 ->
        let v = Vector_clock.create ~n:(check_dense w 2) in
        Vector_clock.load_words v w ~off:3;
        v
    | 1 ->
        let k = check_sparse w 2 in
        let v = Vector_clock.create ~n:w.(2) in
        patch v w 2 k;
        v
    | _ -> (
        if seq <> expect_seq then
          invalid_arg "Codec.decode_piggyback: out-of-sequence delta";
        match base with
        | None -> invalid_arg "Codec.decode_piggyback: delta without base"
        | Some b ->
            let count = check_delta ~n:(Vector_clock.dim b) w 2 in
            let v = Vector_clock.copy b in
            patch v w 2 count;
            v)
  in
  (v, seq)
