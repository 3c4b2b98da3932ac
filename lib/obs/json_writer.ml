(* The one JSON writer: everything streams into a caller's Buffer.t,
   nothing builds a document tree. Formats are fixed (the escaper's
   rules, [string_of_int], C's ["%.Nf"]), so the same values always
   render to the same bytes. *)

type value =
  | Int of int
  | String of string
  | Fixed of int * float
  | Ints of int array
  | Null

(* Double quotes and backslashes are backslashed, bytes below 0x20
   become \u00XX, and everything else (UTF-8 included) passes through
   untouched. *)
let string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      if c = '"' || c = '\\' then begin
        Buffer.add_char buf '\\';
        Buffer.add_char buf c
      end
      else if Char.code c < 0x20 then Printf.bprintf buf "\\u%04x" (Char.code c)
      else Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let int buf n = Buffer.add_string buf (string_of_int n)

(* Printf's ["%.Nf"] calls this primitive with the same format string;
   calling it directly skips re-interpreting the format on every float. *)
external format_float : string -> float -> string = "caml_format_float"

let float_formats = Array.init 10 (Printf.sprintf "%%.%df")

let fixed decimals buf f =
  Buffer.add_string buf (format_float float_formats.(decimals) f)

let list write buf xs =
  Buffer.add_char buf '[';
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char buf ',';
      write buf x)
    xs;
  Buffer.add_char buf ']'

let null buf = Buffer.add_string buf "null"

let option write buf = function Some x -> write buf x | None -> null buf

let value buf = function
  | Int n -> int buf n
  | String s -> string buf s
  | Fixed (decimals, f) -> fixed decimals buf f
  | Ints a -> list int buf (Array.to_list a)
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
