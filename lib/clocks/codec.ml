type wire = int array

let word_bytes = 8

let bytes_of_words w = w * word_bytes

(* ---------- payload writers and offset decoders ----------

   Each payload has one writer, laying it out at [w.(off)..], and one
   decoder reading it from there: the unframed codecs use offset 0, the
   piggyback frame offset 2. Writers and decoders walk live entries, so
   sparse and delta payloads cost O(active), never O(n). *)

let dense_len v = Vector_clock.dim v + 1

let pairs_len k = 2 + (2 * k)

let write_dense w off v =
  w.(off) <- Vector_clock.dim v;
  Vector_clock.store_words v w ~off:(off + 1)

(* Header [n; k], then the [k] pairs [walk] yields. *)
let write_pairs w off ~n ~k walk =
  w.(off) <- n;
  w.(off + 1) <- k;
  let slot = ref (off + 2) in
  walk (fun i x ->
      w.(!slot) <- i;
      w.(!slot + 1) <- x;
      slot := !slot + 2)

let write_sparse w off ~k v =
  write_pairs w off ~n:(Vector_clock.dim v) ~k (fun f ->
      Vector_clock.iter_active f v)

let write_delta w off ~since ~d v =
  write_pairs w off ~n:(Vector_clock.dim v) ~k:d (fun f ->
      Vector_clock.iter_diff f ~since v)

let count_diff ~since v =
  let d = ref 0 in
  Vector_clock.iter_diff (fun _ _ -> incr d) ~since v;
  !d

let decode_dense_at w off =
  let len = Array.length w - off in
  if len = 0 then invalid_arg "Codec.decode_vector: empty buffer";
  let n = w.(off) in
  if n <= 0 || len <> n + 1 then
    invalid_arg "Codec.decode_vector: malformed buffer";
  let v = Vector_clock.create ~n in
  Vector_clock.load_words v w ~off:(off + 1);
  v

(* The [k] pairs of a pairs payload at [off], as a walker. *)
let walk_pairs w off k f =
  for j = 0 to k - 1 do
    f w.(off + 2 + (2 * j)) w.(off + 3 + (2 * j))
  done

let decode_sparse_at w off =
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
  Vector_clock.of_ascending ~n (walk_pairs w off k)

(* The base's live entries merged with the ascending overrides; a zero
   override is legal (a delta may lower a component) and drops the
   entry. A dense base makes the result O(n) anyway, so it is patched
   as an array instead. *)
let decode_delta_at ~base w off =
  let len = Array.length w - off in
  if len < 2 then invalid_arg "Codec.decode_vector_delta: empty";
  let n = w.(off) and count = w.(off + 1) in
  if n <> Vector_clock.dim base || count < 0 || len <> pairs_len count then
    invalid_arg "Codec.decode_vector_delta: malformed buffer";
  let stop = off + len in
  let prev = ref (-1) in
  for j = 0 to count - 1 do
    let i = w.(off + 2 + (2 * j)) and x = w.(off + 3 + (2 * j)) in
    if i <= !prev || i >= n || x < 0 then
      invalid_arg "Codec.decode_vector_delta: malformed entry";
    prev := i
  done;
  if Vector_clock.is_epoch base || Vector_clock.is_sparse base then
    Vector_clock.of_ascending ~n (fun f ->
        (* [s] is the word index of the next override pair *)
        let s = ref (off + 2) in
        Vector_clock.iter_active
          (fun p x ->
            while !s < stop && w.(!s) < p do
              f w.(!s) w.(!s + 1);
              s := !s + 2
            done;
            if !s < stop && w.(!s) = p then begin
              f p w.(!s + 1);
              s := !s + 2
            end
            else f p x)
          base;
        while !s < stop do
          f w.(!s) w.(!s + 1);
          s := !s + 2
        done)
  else begin
    let a = Vector_clock.to_array base in
    walk_pairs w off count (fun i x -> a.(i) <- x);
    Vector_clock.of_array a
  end

(* ---------- unframed codecs ---------- *)

let encode_vector v =
  let w = Array.make (dense_len v) 0 in
  write_dense w 0 v;
  w

let decode_vector w = decode_dense_at w 0

(* Sparse encoding: dimension and pair-count headers, then the nonzero
   components as strictly ascending (pid, tick) pairs — [2k + 2] words
   for [k] live components, beating the dense [n + 1] words whenever
   fewer than half the processes have touched the clock. The decoder
   rejects truncated or padded buffers, out-of-range or unsorted pids,
   and non-positive ticks. *)
let encode_vector_sparse v =
  let k = Vector_clock.active_entries v in
  let w = Array.make (pairs_len k) 0 in
  write_sparse w 0 ~k v;
  w

let decode_vector_sparse w = decode_sparse_at w 0

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

let decode_matrix w =
  if Array.length w < 2 then invalid_arg "Codec.decode_matrix: empty buffer";
  let n = w.(0) and me = w.(1) in
  if n <= 0 || me < 0 || me >= n || Array.length w <> (n * n) + 2 then
    invalid_arg "Codec.decode_matrix: malformed buffer";
  let rows =
    Array.init n (fun i -> Array.init n (fun j -> w.(2 + (i * n) + j)))
  in
  Matrix_clock.of_rows ~me rows

let varint_add buf x =
  let rec go x =
    if x < 0x80 then Buffer.add_char buf (Char.chr x)
    else begin
      Buffer.add_char buf (Char.chr (0x80 lor (x land 0x7f)));
      go (x lsr 7)
    end
  in
  if x < 0 then invalid_arg "Codec.varint: negative" else go x

let varint_read b pos =
  let len = Bytes.length b in
  let rec go pos shift acc =
    if pos >= len then invalid_arg "Codec.decode_vector_varint: truncated";
    (* OCaml ints are 63-bit: a continuation chain past 9 groups would
       shift into (or past) the sign bit and decode a different number
       than was encoded. *)
    if shift >= 63 then invalid_arg "Codec.decode_vector_varint: overlong varint";
    let c = Char.code (Bytes.get b pos) in
    let acc = acc lor ((c land 0x7f) lsl shift) in
    if c land 0x80 = 0 then (acc, pos + 1) else go (pos + 1) (shift + 7) acc
  in
  go pos 0 0

let encode_vector_varint v =
  let buf = Buffer.create 16 in
  varint_add buf (Vector_clock.dim v);
  Array.iter (varint_add buf) (Vector_clock.to_array v);
  Buffer.to_bytes buf

let decode_vector_varint b =
  let n, pos = varint_read b 0 in
  (* Each entry needs at least one byte, so a dimension header larger
     than the remaining buffer is malformed — reject it before the
     [Array.make] rather than letting an attacker-sized header allocate
     gigabytes and then fail on the first truncated entry. *)
  if n <= 0 then invalid_arg "Codec.decode_vector_varint: bad dimension";
  if n > Bytes.length b - pos then
    invalid_arg "Codec.decode_vector_varint: truncated";
  let a = Array.make n 0 in
  let pos = ref pos in
  for i = 0 to n - 1 do
    let x, next = varint_read b !pos in
    a.(i) <- x;
    pos := next
  done;
  if !pos <> Bytes.length b then
    invalid_arg "Codec.decode_vector_varint: trailing bytes";
  Vector_clock.of_array a

let encode_vector_delta ~since v =
  if Vector_clock.dim since <> Vector_clock.dim v then
    invalid_arg "Codec.encode_vector_delta: dimension mismatch";
  let d = count_diff ~since v in
  let w = Array.make (pairs_len d) 0 in
  write_delta w 0 ~since ~d v;
  w

let decode_vector_delta ~base w = decode_delta_at ~base w 0

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

(* A frame with room for a [len]-word payload at offset 2. *)
let frame ~tag ~seq len =
  let w = Array.make (len + 2) 0 in
  w.(0) <- tag;
  w.(1) <- seq;
  w

let dense_frame ~seq v =
  let w = frame ~tag:0 ~seq (dense_len v) in
  write_dense w 2 v;
  w

let sparse_frame ~seq ~k v =
  let w = frame ~tag:1 ~seq (pairs_len k) in
  write_sparse w 2 ~k v;
  w

let encode_piggyback ~mode ~seq ?since v =
  if seq < 0 then invalid_arg "Codec.encode_piggyback: negative seq";
  match mode with
  | Dense -> dense_frame ~seq v
  | Sparse -> sparse_frame ~seq ~k:(Vector_clock.active_entries v) v
  | Delta -> (
      (* adaptive: size the three candidates, build only the shortest.
         Sparse wins ties with dense; delta needs a same-dimension
         [since] and must be strictly shorter. *)
      let k = Vector_clock.active_entries v in
      let self_len = min (pairs_len k) (dense_len v) in
      let d =
        match since with
        | Some s when Vector_clock.dim s = Vector_clock.dim v ->
            count_diff ~since:s v
        | _ -> Vector_clock.dim v (* no usable base: a delta cannot win *)
      in
      match since with
      | Some s when pairs_len d < self_len ->
          let w = frame ~tag:2 ~seq (pairs_len d) in
          write_delta w 2 ~since:s ~d v;
          w
      | _ ->
          if pairs_len k <= dense_len v then sparse_frame ~seq ~k v
          else dense_frame ~seq v)

let piggyback_mode_of w =
  if Array.length w < 2 then
    invalid_arg "Codec.decode_piggyback: truncated frame";
  match w.(0) with
  | 0 -> Dense
  | 1 -> Sparse
  | 2 -> Delta
  | _ -> invalid_arg "Codec.decode_piggyback: unknown tag"

let piggyback_seq w =
  if Array.length w < 2 then
    invalid_arg "Codec.decode_piggyback: truncated frame";
  w.(1)

let decode_piggyback ~expect_seq ?base w =
  let mode = piggyback_mode_of w in
  let seq = w.(1) in
  if seq < 0 then invalid_arg "Codec.decode_piggyback: negative seq";
  let v =
    match mode with
    | Dense -> decode_dense_at w 2
    | Sparse -> decode_sparse_at w 2
    | Delta -> (
        if seq <> expect_seq then
          invalid_arg "Codec.decode_piggyback: out-of-sequence delta";
        match base with
        | None -> invalid_arg "Codec.decode_piggyback: delta without base"
        | Some b -> decode_delta_at ~base:b w 2)
  in
  (v, seq)
