type against = General_clock | Write_clock

type race = {
  event_id : int option;
  time : float;
  accessor : int;
  kind : Dsm_trace.Event.kind;
  granule : Dsm_memory.Addr.region;
  accessor_clock : Dsm_clocks.Vector_clock.t;
  datum_clock : Dsm_clocks.Vector_clock.t;
  against : against;
  prior : Provenance.entry option;
}

type t = {
  mutable races : race list;
  mutable count : int;
  verbose : bool;
}

let src = Logs.Src.create "dsmcheck.race" ~doc:"Race condition signals"

module Log = (val Logs.src_log src : Logs.LOG)

let create ?(verbose = false) () =
  { races = []; count = 0; verbose }

let against_tag = function General_clock -> "general" | Write_clock -> "write"

let against_name a = against_tag a ^ " clock"

let pp_race ppf r =
  Format.fprintf ppf
    "RACE at t=%.2f: P%d %s on %a — accessor clock %a incomparable with %s %a"
    r.time r.accessor
    (Dsm_trace.Event.kind_name r.kind)
    Dsm_memory.Addr.pp_region r.granule Dsm_clocks.Vector_clock.pp
    r.accessor_clock (against_name r.against) Dsm_clocks.Vector_clock.pp
    r.datum_clock

let signal t r =
  t.races <- r :: t.races;
  t.count <- t.count + 1;
  if t.verbose then Log.warn (fun m -> m "%a" pp_race r)

let count t = t.count

let races t = List.rev t.races

type group = {
  g_granule : Dsm_memory.Addr.region;
  g_pids : int list;
  g_count : int;
  g_first_time : float;
  g_kinds : Dsm_trace.Event.kind list;
}

let grouped t =
  let table : (int * int * int, group) Hashtbl.t = Hashtbl.create 16 in
  let key (r : race) =
    ( r.granule.Dsm_memory.Addr.base.pid,
      r.granule.Dsm_memory.Addr.base.offset,
      r.granule.Dsm_memory.Addr.len )
  in
  List.iter
    (fun r ->
      let k = key r in
      match Hashtbl.find_opt table k with
      | None ->
          Hashtbl.add table k
            {
              g_granule = r.granule;
              g_pids = [ r.accessor ];
              g_count = 1;
              g_first_time = r.time;
              g_kinds = [ r.kind ];
            }
      | Some g ->
          Hashtbl.replace table k
            {
              g with
              g_pids =
                (if List.mem r.accessor g.g_pids then g.g_pids
                 else g.g_pids @ [ r.accessor ]);
              g_count = g.g_count + 1;
              g_kinds =
                (if List.mem r.kind g.g_kinds then g.g_kinds
                 else g.g_kinds @ [ r.kind ]);
            })
    (races t);
  Hashtbl.fold (fun _ g acc -> g :: acc) table []
  |> List.map (fun g -> { g with g_pids = List.sort compare g.g_pids })
  |> List.sort (fun a b -> compare a.g_first_time b.g_first_time)

let pp_group ppf g =
  Format.fprintf ppf "%a: %d signal(s), %s by %s, first at t=%.2f"
    Dsm_memory.Addr.pp_region g.g_granule g.g_count
    (String.concat "/" (List.map Dsm_trace.Event.kind_name g.g_kinds))
    (String.concat ", "
       (List.map (fun p -> Printf.sprintf "P%d" p) g.g_pids))
    g.g_first_time

let pp_grouped ppf t =
  match grouped t with
  | [] -> Format.fprintf ppf "no race condition signaled"
  | groups ->
      Format.fprintf ppf "%d raced shared datum(s):@," (List.length groups);
      Format.pp_print_list pp_group ppf groups

module W = Dsm_obs.Json_writer

let csv_header =
  "time,accessor,kind,node,offset,len,against,accessor_clock,datum_clock,event_id\n"

(* One row, streamed: the same bytes as the format
   ["%.6f,%d,%s,%d,%d,%d,%s,\"%s\",\"%s\",%s\n"] with nothing built
   in between. *)
let write_row buf r =
  let add = Buffer.add_string buf and sep () = Buffer.add_char buf ',' in
  W.fixed 6 buf r.time;
  sep ();
  W.int buf r.accessor;
  sep ();
  add (Dsm_trace.Event.kind_name r.kind);
  sep ();
  W.int buf r.granule.Dsm_memory.Addr.base.pid;
  sep ();
  W.int buf r.granule.Dsm_memory.Addr.base.offset;
  sep ();
  W.int buf r.granule.Dsm_memory.Addr.len;
  sep ();
  add (against_tag r.against);
  add ",\"";
  Dsm_clocks.Vector_clock.write buf r.accessor_clock;
  add "\",\"";
  Dsm_clocks.Vector_clock.write buf r.datum_clock;
  add "\",";
  (match r.event_id with Some id -> W.int buf id | None -> ());
  Buffer.add_char buf '\n'

(* A row is about 70 bytes at n = 3: size the buffer so it rarely
   regrows. *)
let to_csv t =
  let buf = Buffer.create (String.length csv_header + (96 * t.count)) in
  Buffer.add_string buf csv_header;
  List.iter (write_row buf) (races t);
  Buffer.contents buf

let fingerprint t =
  Digest.to_hex (Digest.string (to_csv t))

(* Equal bits print equally, to any number of decimals. *)
let same_float a b = Int64.bits_of_float a = Int64.bits_of_float b

let same_clock a b =
  Dsm_clocks.Vector_clock.dim a = Dsm_clocks.Vector_clock.dim b
  && Dsm_clocks.Vector_clock.compare a b = Dsm_clocks.Order.Equal

(* Every field [write_row] renders, unrounded. *)
let same_race a b =
  same_float a.time b.time
  && a.accessor = b.accessor
  && a.kind = b.kind
  && a.granule.Dsm_memory.Addr.base.pid = b.granule.Dsm_memory.Addr.base.pid
  && a.granule.base.offset = b.granule.base.offset
  && a.granule.len = b.granule.len
  && a.against = b.against
  && same_clock a.accessor_clock b.accessor_clock
  && same_clock a.datum_clock b.datum_clock
  && Option.equal Int.equal a.event_id b.event_id

let same_races a b =
  a.count = b.count && List.for_all2 same_race a.races b.races

let pp_summary ppf t =
  if t.count = 0 then Format.fprintf ppf "no race condition signaled"
  else
    Format.fprintf ppf "%d race condition signal(s):@,%a" t.count
      (Format.pp_print_list pp_race)
      (races t)
