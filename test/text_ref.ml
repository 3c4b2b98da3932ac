(* Reference oracles for rendered text. The [Format]/[Printf] renderers
   that [Vector_clock.to_string] and [Report.to_csv] used before both
   streamed into a buffer: a clock printed component by component
   through [Format], and a CSV row built by one [Printf.sprintf] whose
   clock fields are two such strings. And the race report's JSON as
   [Explain.list_to_json] wrote it before chains were shared: every
   explanation written in full. The live writers must produce the same
   bytes for every clock, race and explanation list. *)

module Vector_clock = Dsm_clocks.Vector_clock
module Report = Dsm_core.Report

let pp_clock ppf c =
  Format.pp_print_char ppf '<';
  for i = 0 to Vector_clock.dim c - 1 do
    if i > 0 then Format.pp_print_char ppf ',';
    Format.pp_print_int ppf (Vector_clock.entry c i)
  done;
  Format.pp_print_char ppf '>'

let clock_to_string c = Format.asprintf "%a" pp_clock c

let to_csv (races : Report.race list) =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    "time,accessor,kind,node,offset,len,against,accessor_clock,datum_clock,event_id\n";
  List.iter
    (fun (r : Report.race) ->
      Buffer.add_string buf
        (Printf.sprintf "%.6f,%d,%s,%d,%d,%d,%s,\"%s\",\"%s\",%s\n" r.time
           r.accessor
           (Dsm_trace.Event.kind_name r.kind)
           r.granule.Dsm_memory.Addr.base.pid
           r.granule.Dsm_memory.Addr.base.offset r.granule.Dsm_memory.Addr.len
           (match r.against with
           | General_clock -> "general"
           | Write_clock -> "write")
           (clock_to_string r.accessor_clock)
           (clock_to_string r.datum_clock)
           (match r.event_id with Some id -> string_of_int id | None -> "")))
    races;
  Buffer.contents buf

(* ---------- race report JSON, one explanation at a time ---------- *)

module Explain = Dsm_obs.Explain
module W = Dsm_obs.Json_writer

let add = Buffer.add_string

let json_access buf (a : Explain.access) =
  add buf "{\"pid\":";
  W.int buf a.pid;
  add buf ",\"kind\":";
  W.string buf a.kind;
  add buf ",\"time\":";
  W.fixed 6 buf a.time;
  add buf ",\"op\":";
  W.int buf a.op;
  add buf ",\"event_id\":";
  W.int buf a.event_id;
  add buf ",\"clock\":";
  W.ints buf a.clock;
  Buffer.add_char buf '}'

let json_component buf (i, x, y) =
  add buf "{\"c\":";
  W.int buf i;
  add buf ",\"accessor\":";
  W.int buf x;
  add buf ",\"datum\":";
  W.int buf y;
  Buffer.add_char buf '}'

let json_msg_members buf (m : Explain.msg) =
  add buf "\"src\":";
  W.int buf m.m_src;
  add buf ",\"dst\":";
  W.int buf m.m_dst;
  add buf ",\"op\":";
  W.int buf m.m_op;
  add buf ",\"label\":";
  W.string buf m.m_label;
  add buf ",\"sent\":";
  W.fixed 6 buf m.m_sent;
  add buf ",\"delivered\":";
  W.fixed 6 buf m.m_delivered;
  Buffer.add_char buf '}'

let json_msg buf m =
  Buffer.add_char buf '{';
  json_msg_members buf m

let json_sync_edge buf : Explain.sync_edge -> unit = function
  | Lock_handoff { node; offset; len; from_pid; to_pid; released; acquired }
    ->
      add buf "{\"type\":\"lock_handoff\",\"node\":";
      W.int buf node;
      add buf ",\"offset\":";
      W.int buf offset;
      add buf ",\"len\":";
      W.int buf len;
      add buf ",\"from_pid\":";
      W.int buf from_pid;
      add buf ",\"to_pid\":";
      W.int buf to_pid;
      add buf ",\"released\":";
      W.fixed 6 buf released;
      add buf ",\"acquired\":";
      W.fixed 6 buf acquired;
      Buffer.add_char buf '}'
  | Message m ->
      add buf "{\"type\":\"message\",";
      json_msg_members buf m
  | Rmw_serialization { node; origin; offset; len; kind; time } ->
      add buf "{\"type\":\"rmw\",\"node\":";
      W.int buf node;
      add buf ",\"origin\":";
      W.int buf origin;
      add buf ",\"offset\":";
      W.int buf offset;
      add buf ",\"len\":";
      W.int buf len;
      add buf ",\"kind\":";
      W.string buf kind;
      add buf ",\"time\":";
      W.fixed 6 buf time;
      Buffer.add_char buf '}'

let explanation_to_json buf (t : Explain.t) =
  add buf "{\"cause\":";
  W.string buf t.cause;
  add buf ",\"granule\":{\"node\":";
  W.int buf t.node;
  add buf ",\"offset\":";
  W.int buf t.offset;
  add buf ",\"len\":";
  W.int buf t.len;
  add buf "},\"against\":";
  W.string buf t.against;
  add buf ",\"flagged\":";
  json_access buf t.flagged;
  add buf ",\"prior\":";
  W.option json_access buf t.prior;
  add buf ",\"datum_clock\":";
  W.ints buf t.datum_clock;
  add buf ",\"incomparable\":{\"ahead\":";
  W.list json_component buf t.ahead;
  add buf ",\"ahead_count\":";
  W.int buf t.ahead_count;
  add buf ",\"behind\":";
  W.list json_component buf t.behind;
  add buf ",\"behind_count\":";
  W.int buf t.behind_count;
  add buf "},\"sync_edge\":";
  W.option json_sync_edge buf t.sync_edge;
  add buf ",\"chain\":";
  W.list json_msg buf t.chain;
  add buf ",\"window_events\":";
  W.int buf t.window_events;
  add buf ",\"detail\":";
  W.string buf t.detail;
  Buffer.add_char buf '}'

let explanations_to_json ts =
  let buf = Buffer.create 1024 in
  add buf "{\"explanations\":[\n";
  List.iteri
    (fun i t ->
      if i > 0 then add buf ",\n";
      explanation_to_json buf t)
    ts;
  add buf "\n]}\n";
  Buffer.contents buf
