(* JSON writing for dsmbench's outputs; reading goes through the
   repository's own parser ([Dsm_obs.Trace_json]). *)

include Dsm_obs.Trace_json

let str s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Every digit of the measurement: %.17g round-trips a double. *)
let num f = if Float.is_finite f then Printf.sprintf "%.17g" f else "null"
let int = string_of_int
let bool b = if b then "true" else "false"
let arr vs = "[" ^ String.concat ", " vs ^ "]"

let obj kvs =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> str k ^ ": " ^ v) kvs) ^ "}"

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path text =
  Out_channel.with_open_bin path (fun oc -> output_string oc text)

let to_num = function Num f -> f | _ -> nan
let to_str = function Str s -> s | _ -> ""
let to_list = function Arr l -> l | _ -> []
let to_assoc = function Obj kvs -> kvs | _ -> []
let field name j = Option.value (member name j) ~default:Null
