(* Reference oracle for the clock piggyback codec: the build-all-three
   encoder and the array decoders, kept as they were before the live
   codec learnt to size its candidates first. Every payload goes through
   a full [int array] of n entries; the adaptive encoder builds the
   dense, sparse and delta payloads and frames the shortest. The live
   [Codec] must produce the same words and accept the same frames. The
   varint and matrix decoders are the inverses of the live encoders E6
   prices, which ship no decoder of their own.

   One deliberate difference from the historical code: the delta
   decoder rejects non-ascending indices, as the live decoder does. *)

open Dsm_clocks

type piggyback_mode = Codec.piggyback_mode = Dense | Sparse | Delta

let encode_vector v =
  let a = Vector_clock.to_array v in
  let n = Array.length a in
  Array.init (n + 1) (fun i -> if i = 0 then n else a.(i - 1))

let decode_vector w =
  if Array.length w = 0 then invalid_arg "Codec.decode_vector: empty buffer";
  let n = w.(0) in
  if n <= 0 || Array.length w <> n + 1 then
    invalid_arg "Codec.decode_vector: malformed buffer";
  Vector_clock.of_array (Array.sub w 1 n)

let encode_vector_sparse v =
  let n = Vector_clock.dim v in
  let k = Vector_clock.active_entries v in
  let w = Array.make (2 + (2 * k)) 0 in
  w.(0) <- n;
  w.(1) <- k;
  let slot = ref 0 in
  for i = 0 to n - 1 do
    let x = Vector_clock.entry v i in
    if x <> 0 then begin
      w.(2 + (2 * !slot)) <- i;
      w.(3 + (2 * !slot)) <- x;
      incr slot
    end
  done;
  w

let decode_vector_sparse w =
  if Array.length w < 2 then
    invalid_arg "Codec.decode_vector_sparse: truncated buffer";
  let n = w.(0) and k = w.(1) in
  if n <= 0 || k < 0 || k > n then
    invalid_arg "Codec.decode_vector_sparse: malformed header";
  if Array.length w < 2 + (2 * k) then
    invalid_arg "Codec.decode_vector_sparse: truncated buffer";
  if Array.length w > 2 + (2 * k) then
    invalid_arg "Codec.decode_vector_sparse: trailing words";
  let a = Array.make n 0 in
  let prev = ref (-1) in
  for j = 0 to k - 1 do
    let pid = w.(2 + (2 * j)) and tick = w.(3 + (2 * j)) in
    if pid <= !prev || pid >= n then
      invalid_arg "Codec.decode_vector_sparse: pids not ascending in range";
    if tick <= 0 then
      invalid_arg "Codec.decode_vector_sparse: non-positive tick";
    a.(pid) <- tick;
    prev := pid
  done;
  Vector_clock.of_array a

let encode_vector_delta ~since v =
  if Vector_clock.dim since <> Vector_clock.dim v then
    invalid_arg "Codec.encode_vector_delta: dimension mismatch";
  let n = Vector_clock.dim v in
  let diffs = ref [] and count = ref 0 in
  for i = n - 1 downto 0 do
    let x = Vector_clock.entry v i in
    if x <> Vector_clock.entry since i then begin
      diffs := (i, x) :: !diffs;
      incr count
    end
  done;
  let w = Array.make (2 + (2 * !count)) 0 in
  w.(0) <- n;
  w.(1) <- !count;
  List.iteri
    (fun k (i, x) ->
      w.(2 + (2 * k)) <- i;
      w.(3 + (2 * k)) <- x)
    !diffs;
  w

let decode_vector_delta ~base w =
  if Array.length w < 2 then invalid_arg "Codec.decode_vector_delta: empty";
  let n = w.(0) and count = w.(1) in
  if n <> Vector_clock.dim base || count < 0
     || Array.length w <> 2 + (2 * count)
  then invalid_arg "Codec.decode_vector_delta: malformed buffer";
  let a = Vector_clock.to_array base in
  let prev = ref (-1) in
  for k = 0 to count - 1 do
    let i = w.(2 + (2 * k)) and x = w.(3 + (2 * k)) in
    if i <= !prev || i >= n || x < 0 then
      invalid_arg "Codec.decode_vector_delta: malformed entry";
    a.(i) <- x;
    prev := i
  done;
  Vector_clock.of_array a

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

let decode_vector_varint b =
  let n, pos = varint_read b 0 in
  (* each entry needs at least one byte: a larger header is malformed,
     rejected before it sizes an array *)
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

(* The owner and the rows of an encoded matrix clock. *)
let decode_matrix w =
  if Array.length w < 2 then invalid_arg "Codec.decode_matrix: empty buffer";
  let n = w.(0) and me = w.(1) in
  if n <= 0 || me < 0 || me >= n || Array.length w <> (n * n) + 2 then
    invalid_arg "Codec.decode_matrix: malformed buffer";
  (me, Array.init n (fun i -> Array.sub w (2 + (i * n)) n))

let frame ~tag ~seq payload =
  let n = Array.length payload in
  let w = Array.make (n + 2) 0 in
  w.(0) <- tag;
  w.(1) <- seq;
  Array.blit payload 0 w 2 n;
  w

let encode_piggyback ~mode ~seq ?since v =
  if seq < 0 then invalid_arg "Codec.encode_piggyback: negative seq";
  match mode with
  | Dense -> frame ~tag:0 ~seq (encode_vector v)
  | Sparse -> frame ~tag:1 ~seq (encode_vector_sparse v)
  | Delta ->
      let dense = encode_vector v in
      let sparse = encode_vector_sparse v in
      let delta =
        match since with
        | Some s when Vector_clock.dim s = Vector_clock.dim v ->
            Some (encode_vector_delta ~since:s v)
        | _ -> None
      in
      let self_contained =
        if Array.length sparse <= Array.length dense then
          frame ~tag:1 ~seq sparse
        else frame ~tag:0 ~seq dense
      in
      (match delta with
      | Some d when Array.length d + 2 < Array.length self_contained ->
          frame ~tag:2 ~seq d
      | _ -> self_contained)

let piggyback_mode_of w =
  if Array.length w < 2 then
    invalid_arg "Codec.decode_piggyback: truncated frame";
  match w.(0) with
  | 0 -> Dense
  | 1 -> Sparse
  | 2 -> Delta
  | _ -> invalid_arg "Codec.decode_piggyback: unknown tag"

let decode_piggyback ~expect_seq ?base w =
  let mode = piggyback_mode_of w in
  let seq = w.(1) in
  if seq < 0 then invalid_arg "Codec.decode_piggyback: negative seq";
  let payload = Array.sub w 2 (Array.length w - 2) in
  let v =
    match mode with
    | Dense -> decode_vector payload
    | Sparse -> decode_vector_sparse payload
    | Delta -> (
        if seq <> expect_seq then
          invalid_arg "Codec.decode_piggyback: out-of-sequence delta";
        match base with
        | None -> invalid_arg "Codec.decode_piggyback: delta without base"
        | Some b -> decode_vector_delta ~base:b payload)
  in
  (v, seq)

(* The sized-first codec: the live encoder and decoders as they were
   before decoding learnt to write into an existing clock. The encoder
   sizes the three candidates and builds only the shortest; every
   decoder returns a fresh clock. Its [Invalid_argument] texts are the
   ones [Codec.decode_piggyback] must raise. *)
module Sized = struct
  let dense_len v = Vector_clock.dim v + 1

  let pairs_len k = 2 + (2 * k)

  let write_dense w off v =
    w.(off) <- Vector_clock.dim v;
    Vector_clock.store_words v w ~off:(off + 1)

  let write_pairs w off ~n ~k walk =
    w.(off) <- n;
    w.(off + 1) <- k;
    let slot = ref (off + 2) in
    walk (fun i x ->
        w.(!slot) <- i;
        w.(!slot + 1) <- x;
        slot := !slot + 2)

  (* The components where [v] differs from [since], ascending. *)
  let iter_diff f ~since v =
    for i = 0 to Vector_clock.dim v - 1 do
      let x = Vector_clock.entry v i in
      if x <> Vector_clock.entry since i then f i x
    done

  let count_diff ~since v =
    let d = ref 0 in
    iter_diff (fun _ _ -> incr d) ~since v;
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
    let a = Array.make n 0 in
    let prev = ref (-1) in
    for j = 0 to k - 1 do
      let pid = w.(off + 2 + (2 * j)) and tick = w.(off + 3 + (2 * j)) in
      if pid <= !prev || pid >= n then
        invalid_arg "Codec.decode_vector_sparse: pids not ascending in range";
      if tick <= 0 then
        invalid_arg "Codec.decode_vector_sparse: non-positive tick";
      a.(pid) <- tick;
      prev := pid
    done;
    Vector_clock.of_array a

  let decode_delta_at ~base w off =
    let len = Array.length w - off in
    if len < 2 then invalid_arg "Codec.decode_vector_delta: empty";
    let n = w.(off) and count = w.(off + 1) in
    if n <> Vector_clock.dim base || count < 0 || len <> pairs_len count then
      invalid_arg "Codec.decode_vector_delta: malformed buffer";
    let prev = ref (-1) in
    for j = 0 to count - 1 do
      let i = w.(off + 2 + (2 * j)) and x = w.(off + 3 + (2 * j)) in
      if i <= !prev || i >= n || x < 0 then
        invalid_arg "Codec.decode_vector_delta: malformed entry";
      prev := i
    done;
    let a = Vector_clock.to_array base in
    walk_pairs w off count (fun i x -> a.(i) <- x);
    Vector_clock.of_array a

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
    write_pairs w 2 ~n:(Vector_clock.dim v) ~k (fun f ->
        Vector_clock.iter_active f v);
    w

  let encode_piggyback ~mode ~seq ?since v =
    if seq < 0 then invalid_arg "Codec.encode_piggyback: negative seq";
    match mode with
    | Dense -> dense_frame ~seq v
    | Sparse -> sparse_frame ~seq ~k:(Vector_clock.active_entries v) v
    | Delta -> (
        let k = Vector_clock.active_entries v in
        let self_len = min (pairs_len k) (dense_len v) in
        let d =
          match since with
          | Some s when Vector_clock.dim s = Vector_clock.dim v ->
              count_diff ~since:s v
          | _ -> Vector_clock.dim v
        in
        match since with
        | Some s when pairs_len d < self_len ->
            let w = frame ~tag:2 ~seq (pairs_len d) in
            write_pairs w 2 ~n:(Vector_clock.dim v) ~k:d (fun f ->
                iter_diff f ~since:s v);
            w
        | _ ->
            if pairs_len k <= dense_len v then sparse_frame ~seq ~k v
            else dense_frame ~seq v)

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
end
