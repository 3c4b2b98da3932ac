(* The one JSON writer: everything streams into a caller's Buffer.t,
   nothing builds a document tree. Formats are fixed (the escaper's
   rules, decimal ints, C's ["%.Nf"]), so the same values always render
   to the same bytes. The common cases write straight into the buffer
   without allocating: an unescaped string is one blit, an int is its
   digits, and most fixed-decimal floats are an integer and a
   zero-padded fraction. *)

type value =
  | Int of int
  | String of string
  | Fixed of int * float
  | Ints of int array
  | Null

let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

(* Double quotes and backslashes are backslashed, bytes below 0x20
   become \u00XX, and everything else (UTF-8 included) passes through
   untouched. A string with nothing to escape is copied whole. *)
let string buf s =
  Buffer.add_char buf '"';
  if not (String.exists needs_escape s) then Buffer.add_string buf s
  else
    String.iter
      (fun c ->
        if c = '"' || c = '\\' then begin
          Buffer.add_char buf '\\';
          Buffer.add_char buf c
        end
        else if Char.code c < 0x20 then
          Printf.bprintf buf "\\u%04x" (Char.code c)
        else Buffer.add_char buf c)
      s;
  Buffer.add_char buf '"'

(* The digits of [-n] for [n <= 0]: working on the negative side covers
   [min_int], whose magnitude has no positive int. *)
let rec neg_digits buf n =
  if n <= -10 then neg_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 - (n mod 10)))

let int buf n =
  if n < 0 then begin
    Buffer.add_char buf '-';
    neg_digits buf n
  end
  else neg_digits buf (-n)

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

let slow decimals buf f =
  Buffer.add_string buf (format_float float_formats.(decimals) f)

(* The integer [n] as [n / 10^d], a point and [d] zero-padded digits. *)
let scaled_int decimals buf n =
  let unit = pow10.(decimals) in
  int buf (n / unit);
  if decimals > 0 then begin
    Buffer.add_char buf '.';
    let r = n mod unit in
    let d = ref (unit / 10) in
    while !d > 0 do
      Buffer.add_char buf (Char.unsafe_chr (48 + (r / !d mod 10)));
      d := !d / 10
    done
  end

(* ["%.Nf"] rounds the exact binary value of [f * 10^N] to an integer,
   ties to even. Let [p] be that product rounded to a double, [k] its
   floor. When [p]'s (exact) fraction is not one half, rounding [p]
   rounds the exact value: the rounding error is below half an ulp of
   [p], and any double other than [k + 0.5] is at least an ulp away
   from it. When it is one half, the exact residual of the product
   ([Float.fma]) says on which side of the half the exact value lies;
   a zero residual is a true tie, left to the C library. So are
   negatives (including [-0.]), NaN, infinities and large values. *)
let fixed decimals buf f =
  if f >= 0. && (not (Float.sign_bit f)) && f < limits.(decimals) then begin
    let scale = scales.(decimals) in
    let p = f *. scale in
    let k = Float.floor p in
    let frac = p -. k in
    let n = int_of_float k in
    if frac < 0.5 then scaled_int decimals buf n
    else if frac > 0.5 then scaled_int decimals buf (n + 1)
    else
      let e = Float.fma f scale (-.p) in
      if e > 0. then scaled_int decimals buf (n + 1)
      else if e < 0. then scaled_int decimals buf n
      else slow decimals buf f
  end
  else slow decimals buf f

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

let ints buf a =
  Buffer.add_char buf '[';
  for i = 0 to Array.length a - 1 do
    if i > 0 then Buffer.add_char buf ',';
    int buf a.(i)
  done;
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
