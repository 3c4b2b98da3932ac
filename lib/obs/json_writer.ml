(* The one JSON writer: everything streams into a caller's Buffer.t,
   nothing builds a document tree. Formats are fixed (the escaper's
   rules, decimal ints, C's ["%.Nf"]), so the same values always render
   to the same bytes. The common cases write straight into the buffer
   without allocating: an unescaped string is one blit, an int is its
   digits two at a time, and most fixed-decimal floats are an integer
   and a zero-padded fraction. At the precisions in use (3, 6 and 9
   decimals) every division is by a constant. *)

type value =
  | Int of int
  | String of string
  | Fixed of int * float
  | Ints of int array
  | Null

(* Whether [s] from [i] on has nothing to escape: a direct loop, no
   closure per byte. *)
let rec plain s i n =
  i = n
  ||
  let c = String.unsafe_get s i in
  c <> '"' && c <> '\\' && c >= ' ' && plain s (i + 1) n

let hex = "0123456789abcdef"

(* Double quotes and backslashes are backslashed, bytes below 0x20
   become \u00XX, and everything else (UTF-8 included) passes through
   untouched. A string with nothing to escape is copied whole. *)
let string buf s =
  Buffer.add_char buf '"';
  let n = String.length s in
  if plain s 0 n then Buffer.add_string buf s
  else
    for i = 0 to n - 1 do
      let c = String.unsafe_get s i in
      if c = '"' || c = '\\' then begin
        Buffer.add_char buf '\\';
        Buffer.add_char buf c
      end
      else if c < ' ' then begin
        Buffer.add_string buf "\\u00";
        Buffer.add_char buf hex.[Char.code c lsr 4];
        Buffer.add_char buf hex.[Char.code c land 15]
      end
      else Buffer.add_char buf c
    done;
  Buffer.add_char buf '"'

(* "00" to "99" as little-endian 16-bit words: the tens digit of [k]
   in the low byte of [pairs.(k)], its units in the high one, so that
   one store writes both. *)
let pairs = Array.init 100 (fun k -> (48 + (k / 10)) lor ((48 + (k mod 10)) lsl 8))

(* [0 <= k < 100] as two digits. *)
let pair buf k = Buffer.add_uint16_le buf (Array.unsafe_get pairs k)

(* The digits of [-n] for [n <= 0], two at a time: working on the
   negative side covers [min_int], whose magnitude has no positive
   int. *)
let rec neg_digits buf n =
  if n > -10 then Buffer.add_char buf (Char.unsafe_chr (48 - n))
  else if n > -100 then pair buf (-n)
  else begin
    neg_digits buf (n / 100);
    pair buf (-(n mod 100))
  end

let int buf n =
  if n >= 0 && n < 10 then Buffer.add_char buf (Char.unsafe_chr (48 + n))
  else if n < 0 then begin
    Buffer.add_char buf '-';
    neg_digits buf n
  end
  else neg_digits buf (-n)

(* [0 <= r < 10^width] as exactly [width] digits, high ones first. *)
let rec padded buf width r =
  if width >= 2 then begin
    padded buf (width - 2) (r / 100);
    pair buf (r mod 100)
  end
  else if width = 1 then Buffer.add_char buf (Char.unsafe_chr (48 + r))

(* Printf's ["%.Nf"] calls this primitive with the same format string;
   calling it directly skips re-interpreting the format on every float. *)
external format_float : string -> float -> string = "caml_format_float"

let float_formats = Array.init 10 (Printf.sprintf "%%.%df")

let pow10 =
  let a = Array.make 10 1 in
  for n = 1 to 9 do
    a.(n) <- 10 * a.(n - 1)
  done;
  a

let scales = Array.map float_of_int pow10

(* Below [limits.(n)], [f * 10^n] is under 2^52: its integer part fits
   an int and its fraction [p - floor p] is exact. *)
let limits = Array.map (fun s -> 0x1p52 /. s) scales

(* The integer [n >= 0] as [n / 10^d], a point and [d] zero-padded
   digits. The precisions in use (3, 6 and 9) split [n] by a constant. *)
let scaled_int decimals buf n =
  let units =
    match decimals with
    | 3 -> n / 1000
    | 6 -> n / 1_000_000
    | 9 -> n / 1_000_000_000
    | _ -> n / pow10.(decimals)
  in
  int buf units;
  if decimals > 0 then begin
    Buffer.add_char buf '.';
    padded buf decimals (n - (units * pow10.(decimals)))
  end

(* ["%.Nf"] rounds the exact binary value of [f * 10^N] to an integer,
   ties to even, and prints a negative value (and [-0.]) as a minus
   sign before its magnitude's digits. [rounded decimals f] is that
   integer for [|f|], or [-1] when the C library must format [f]. Let
   [p] be the magnitude's product rounded to a double and [k] its
   integer part (below 2^52, [p - k] is exact). When that fraction is
   not one half, rounding [p] rounds the exact value: the rounding
   error is below half an ulp of [p], and any double other than
   [k + 0.5] is at least an ulp away from it. When it is one half, the
   exact residual of the product ([Float.fma]) says on which side of
   the half the exact value lies; a zero residual is a true tie, left
   to the C library. So are NaN, infinities and large values. The
   common path calls no C and, inlined, boxes no float. *)
let[@inline] rounded decimals f =
  let a = Float.abs f in
  if a < limits.(decimals) then begin
    let scale = scales.(decimals) in
    let p = a *. scale in
    let n = int_of_float p in
    let frac = p -. float_of_int n in
    if frac < 0.5 then n
    else if frac > 0.5 then n + 1
    else
      let e = Float.fma a scale (-.p) in
      if e > 0. then n + 1 else if e < 0. then n else -1
  end
  else -1

let[@inline] negative f = f < 0. || (f = 0. && 1. /. f < 0.)

let fixed decimals buf f =
  let n = rounded decimals f in
  if n < 0 then Buffer.add_string buf (format_float float_formats.(decimals) f)
  else begin
    if negative f then Buffer.add_char buf '-';
    scaled_int decimals buf n
  end

(* ---------- lengths ---------- *)

(* Each writer's output length, computed without writing: a caller
   sizes its buffer exactly before writing a large document. *)

let rec digits n = if n < 10 then 1 else if n < 100 then 2 else 2 + digits (n / 100)

let int_length n =
  if n >= 0 && n < 10 then 1
  else if n >= 0 then digits n
  else if n = min_int then 20
  else 1 + digits (-n)

let string_length s =
  let n = String.length s in
  if plain s 0 n then n + 2
  else begin
    let len = ref 2 in
    for i = 0 to n - 1 do
      let c = String.unsafe_get s i in
      len := !len + if c = '"' || c = '\\' then 2 else if c < ' ' then 6 else 1
    done;
    !len
  end

let fixed_length decimals f =
  let n = rounded decimals f in
  if n < 0 then String.length (format_float float_formats.(decimals) f)
  else
    Bool.to_int (negative f)
    + int_length (n / pow10.(decimals))
    + if decimals > 0 then 1 + decimals else 0

let ints_length a =
  let len = ref (Int.max 1 (Array.length a) + 1) in
  for i = 0 to Array.length a - 1 do
    len := !len + int_length a.(i)
  done;
  !len

(* The elements after the first, each behind a comma: a top-level loop,
   so writing a list allocates no closure. *)
let rec rest write buf = function
  | [] -> ()
  | x :: tl ->
      Buffer.add_char buf ',';
      write buf x;
      rest write buf tl

let list write buf xs =
  Buffer.add_char buf '[';
  (match xs with
  | [] -> ()
  | x :: tl ->
      write buf x;
      rest write buf tl);
  Buffer.add_char buf ']'

(* A comma and a one-digit element, the common clock entry, are one
   16-bit store. *)
let ints buf a =
  Buffer.add_char buf '[';
  if Array.length a > 0 then begin
    int buf (Array.unsafe_get a 0);
    for i = 1 to Array.length a - 1 do
      let x = Array.unsafe_get a i in
      if x >= 0 && x < 10 then Buffer.add_uint16_le buf (44 lor ((48 + x) lsl 8))
      else begin
        Buffer.add_char buf ',';
        int buf x
      end
    done
  end;
  Buffer.add_char buf ']'

let null buf = Buffer.add_string buf "null"

let option write buf = function Some x -> write buf x | None -> null buf

let value buf = function
  | Int n -> int buf n
  | String s -> string buf s
  | Fixed (decimals, f) -> fixed decimals buf f
  | Ints a -> ints buf a
  | Null -> null buf

let key ?(spaced = false) buf k =
  string buf k;
  Buffer.add_string buf (if spaced then ": " else ":")

let field buf k write x =
  Buffer.add_char buf ',';
  key buf k;
  write buf x

let members ?(spaced = false) buf kvs =
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_string buf (if spaced then ", " else ",");
      key ~spaced buf k;
      value buf v)
    kvs

let obj buf kvs =
  Buffer.add_char buf '{';
  members buf kvs;
  Buffer.add_char buf '}'
