(* Reference oracle for the per-run text digests: the [Format]/[Printf]
   renderers that [Vector_clock.to_string] and [Report.to_csv] used
   before both streamed into a buffer. A clock printed component by
   component through [Format], and a CSV row built by one
   [Printf.sprintf] whose clock fields are two such strings. The live
   writers must produce the same bytes for every clock and race. *)

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
