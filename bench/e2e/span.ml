(* In-memory spans around the benchmark's calls into each layer, written
   out as Chrome trace-event JSON when the traced run ends. A disabled
   recorder ([off]) costs one branch per call, so the untraced and the
   traced runs share every line of workload code. *)

type span = {
  id : int;
  parent : int;  (* -1 at the top *)
  name : string;  (* "<layer>.<call>" *)
  tid : int;  (* one lane per workload *)
  rung : string;
  round : int;
  start : float;
  dur : float;
}

type t = {
  on : bool;
  origin : float;
  mutable spans : span list;
  mutable stack : int list;
  mutable next : int;
  mutable tid : int;
  mutable rung : string;
  mutable round : int;
}

(* CLOCK_MONOTONIC in nanoseconds: gettimeofday's microseconds would
   quantize the shortest spans. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* Process CPU time (user + system, microseconds). It excludes the time
   the hypervisor steals from this VM, which moved wall-clock medians of
   whole runs by 50-70% on the 2-core host the baselines come from. The
   end-to-end host metrics and the ladder's rung differences use it,
   scaled to the reference speed (see Calib). *)
let cpu () =
  let t = Unix.times () in
  t.tms_utime +. t.tms_stime

let make on =
  { on; origin = now (); spans = []; stack = []; next = 0; tid = 0; rung = "";
    round = 0 }

let off = make false
let create () = make true

let set t ?tid ?rung ?round () =
  if t.on then begin
    Option.iter (fun v -> t.tid <- v) tid;
    Option.iter (fun v -> t.rung <- v) rung;
    Option.iter (fun v -> t.round <- v) round
  end

let span t name f =
  if not t.on then f ()
  else begin
    let id = t.next in
    t.next <- id + 1;
    let parent = match t.stack with p :: _ -> p | [] -> -1 in
    t.stack <- id :: t.stack;
    let start = now () in
    let close () =
      let dur = now () -. start in
      t.stack <- List.tl t.stack;
      t.spans <-
        { id; parent; name; tid = t.tid; rung = t.rung; round = t.round;
          start; dur }
        :: t.spans
    in
    match f () with
    | v ->
        close ();
        v
    | exception e ->
        close ();
        raise e
  end

(* Durations (s) of the spans named [name] in lane [tid] on one ladder
   rung, oldest first. *)
let durations t ~tid ~rung name =
  List.rev
    (List.filter_map
       (fun (s : span) ->
         if String.equal s.name name && s.tid = tid && String.equal s.rung rung
         then Some s.dur
         else None)
       t.spans)

let layer name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

(* Self time per span name in lane [tid]: each span's duration minus the
   part of it that its child spans cover. *)
let self_times t ~tid =
  let children = Hashtbl.create 64 in
  List.iter
    (fun (s : span) ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          (s.dur +. Option.value (Hashtbl.find_opt children s.parent) ~default:0.))
    t.spans;
  let acc = Hashtbl.create 32 in
  List.iter
    (fun (s : span) ->
      if s.tid = tid then begin
        let self =
          s.dur -. Option.value (Hashtbl.find_opt children s.id) ~default:0.
        in
        let total, calls =
          Option.value (Hashtbl.find_opt acc s.name) ~default:(0., 0)
        in
        Hashtbl.replace acc s.name (total +. self, calls + 1)
      end)
    t.spans;
  List.sort compare (List.of_seq (Hashtbl.to_seq acc))

let to_chrome t ~lanes ~metadata =
  let us x = Json.num (Float.round (x *. 1e7) /. 10.) in
  let lane (tid, label) =
    Json.obj
      [
        ("name", Json.str "thread_name");
        ("ph", Json.str "M");
        ("pid", "1");
        ("tid", Json.int tid);
        ("args", Json.obj [ ("name", Json.str label) ]);
      ]
  in
  let event (s : span) =
    Json.obj
      [
        ("name", Json.str s.name);
        ("cat", Json.str (layer s.name));
        ("ph", Json.str "X");
        ("ts", us (s.start -. t.origin));
        ("dur", us s.dur);
        ("pid", "1");
        ("tid", Json.int s.tid);
        ( "args",
          Json.obj
            [
              ("id", Json.int s.id);
              ("parent", Json.int s.parent);
              ("rung", Json.str s.rung);
              ("round", Json.int s.round);
            ] );
      ]
  in
  Json.obj
    [
      ( "traceEvents",
        "[\n"
        ^ String.concat ",\n"
            (List.map lane lanes @ List.rev_map event t.spans)
        ^ "\n]" );
      ("displayTimeUnit", Json.str "ms");
      ("metadata", metadata);
    ]
