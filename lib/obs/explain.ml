(* Correlate one race signal with the provenance endpoint and the
   flight-recorder window into a causal explanation.

   Everything here is plain data (ints, floats, strings, int-array clock
   snapshots): dsm_obs sits below the clock and detector libraries, so
   the adapter in [Dsm_core.Diagnose] lowers Report races into this
   representation. All construction is pure and all rendering uses fixed
   formats, so a given (race, provenance, window) triple always yields
   byte-identical text/JSON — the determinism half of the acceptance
   gate. *)

type access = {
  pid : int;
  kind : string; (* "read" | "write" | "atomic-update" *)
  time : float; (* simulated µs; -1. when unknown *)
  op : int; (* detector checked-op ordinal; -1 when unknown *)
  event_id : int; (* trace event id; -1 when absent *)
  clock : int array; (* dense snapshot of the access's vector clock *)
}

type sync_edge =
  | Lock_handoff of {
      node : int;
      offset : int;
      len : int;
      from_pid : int;
      to_pid : int;
      released : float;
      acquired : float;
    }
  | Message of {
      src : int;
      dst : int;
      op : int;
      label : string;
      sent : float; (* -1. if the send fell out of the window *)
      delivered : float;
    }
  | Rmw_serialization of {
      node : int;
      origin : int;
      offset : int;
      len : int;
      kind : string;
      time : float;
    }

type msg = {
  m_src : int;
  m_dst : int;
  m_op : int;
  m_label : string;
  m_sent : float; (* -1. if the send fell out of the window *)
  m_delivered : float;
}

(* (component, accessor tick, datum tick) *)
type component = int * int * int

type t = {
  cause : string; (* "race" | "atomicity" *)
  node : int;
  offset : int;
  len : int;
  against : string;
  flagged : access;
  datum_clock : int array;
  prior : access option;
  ahead : component list; (* accessor > datum, first [component_cap] *)
  ahead_count : int;
  behind : component list; (* datum > accessor, first [component_cap] *)
  behind_count : int;
  sync_edge : sync_edge option;
  chain : msg list; (* recent delivered messages touching the endpoints *)
  window_events : int; (* how many events the recorder window held *)
  detail : string; (* free-form context, e.g. the violated invariant *)
}

let component_cap = 8
let chain_cap = 8

let overlaps ~node ~offset ~len node' offset' len' =
  node = node' && offset < offset' + len' && offset' < offset + len

let clock_entry c i = if i < Array.length c then c.(i) else 0

(* Components where one clock is strictly ahead of the other — the
   exact coordinates that make the pair incomparable. *)
let rec take n = function
  | [] -> []
  | _ when n = 0 -> []
  | x :: tl -> x :: take (n - 1) tl

let split_components a d =
  let dim = max (Array.length a) (Array.length d) in
  let ahead = ref [] and behind = ref [] in
  (* downto + cons leaves both lists in ascending component order *)
  for i = dim - 1 downto 0 do
    let x = clock_entry a i and y = clock_entry d i in
    if x > y then ahead := (i, x, y) :: !ahead
    else if y > x then behind := (i, x, y) :: !behind
  done;
  ( take component_cap !ahead,
    List.length !ahead,
    take component_cap !behind,
    List.length !behind )

let involves pid ~p1 ~p2 = pid = p1 || (p2 >= 0 && pid = p2)

(* Delivered messages touching either endpoint, oldest first, capped to
   the most recent [chain_cap]. Sends are paired with deliveries by
   (src, dst, op); a delivery whose send predates the window gets
   [m_sent = -1.]. *)
let message_chain window ~p1 ~p2 =
  let sent : (int * int * int, float) Hashtbl.t = Hashtbl.create 32 in
  let chain = ref [] in
  List.iter
    (fun ev ->
      match (ev : Probe.event) with
      | Msg_sent { time; src; dst; op; _ } ->
          Hashtbl.replace sent (src, dst, op) time
      | Msg_delivered { time; src; dst; op; label }
        when involves src ~p1 ~p2 || involves dst ~p1 ~p2 ->
          let m_sent =
            match Hashtbl.find_opt sent (src, dst, op) with
            | Some t0 -> t0
            | None -> -1.
          in
          chain :=
            {
              m_src = src;
              m_dst = dst;
              m_op = op;
              m_label = label;
              m_sent;
              m_delivered = time;
            }
            :: !chain
      | _ -> ())
    window;
  List.rev (take chain_cap !chain)

let edge_time = function
  | Lock_handoff { acquired; _ } -> acquired
  | Message { delivered; _ } -> delivered
  | Rmw_serialization { time; _ } -> time

(* On equal times a later-scanned candidate wins, so the choice is a
   deterministic function of window order. *)
let better cand best =
  match best with None -> true | Some b -> edge_time cand >= edge_time b

(* The most recent event in the window that could have ordered the two
   endpoints: a lock hand-off on the racing granule, a protocol message
   between them, or an RMW serialization on the granule. *)
let find_sync window ~p1 ~p2 ~node ~offset ~len =
  let best = ref None in
  let consider c = if better c !best then best := Some c in
  let releases : (int, float) Hashtbl.t = Hashtbl.create 4 in
  let sent : (int * int * int, float) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun ev ->
      match (ev : Probe.event) with
      | Lock_released { time; pid; node = n'; offset = o'; len = l' }
        when involves pid ~p1 ~p2 && overlaps ~node ~offset ~len n' o' l' ->
          Hashtbl.replace releases pid time
      | Lock_acquired { time; pid; node = n'; offset = o'; len = l' }
        when involves pid ~p1 ~p2 && overlaps ~node ~offset ~len n' o' l' ->
          let other = if pid = p1 then p2 else p1 in
          (match Hashtbl.find_opt releases other with
          | Some released when released <= time ->
              consider
                (Lock_handoff
                   {
                     node = n';
                     offset = o';
                     len = l';
                     from_pid = other;
                     to_pid = pid;
                     released;
                     acquired = time;
                   })
          | _ -> ())
      | Msg_sent { time; src; dst; op; _ } ->
          Hashtbl.replace sent (src, dst, op) time
      | Msg_delivered { time; src; dst; op; label }
        when p2 >= 0
             && ((src = p1 && dst = p2) || (src = p2 && dst = p1)) ->
          let sent_t =
            match Hashtbl.find_opt sent (src, dst, op) with
            | Some t0 -> t0
            | None -> -1.
          in
          consider
            (Message { src; dst; op; label; sent = sent_t; delivered = time })
      | Rmw { time; node = n'; origin; offset = o'; len = l'; kind }
        when overlaps ~node ~offset ~len n' o' l' ->
          consider
            (Rmw_serialization
               { node = n'; origin; offset = o'; len = l'; kind; time })
      | _ -> ())
    window;
  !best

let build ~cause ~node ~offset ~len ~against ~flagged ~datum_clock ~prior
    ~window ~detail =
  let ahead, ahead_count, behind, behind_count =
    split_components flagged.clock datum_clock
  in
  let p1 = flagged.pid in
  let p2 = match prior with Some p -> p.pid | None -> -1 in
  {
    cause;
    node;
    offset;
    len;
    against;
    flagged;
    datum_clock;
    prior;
    ahead;
    ahead_count;
    behind;
    behind_count;
    sync_edge = find_sync window ~p1 ~p2 ~node ~offset ~len;
    chain = message_chain window ~p1 ~p2;
    window_events = List.length window;
    detail;
  }

let of_race ~node ~offset ~len ~against ~flagged ~datum_clock ?prior
    ~window () =
  build ~cause:"race" ~node ~offset ~len ~against ~flagged ~datum_clock
    ~prior ~window ~detail:""

(* Atomicity fallback: a serial-spec violation with zero race signals
   (e.g. a planted RMW-atomicity bug). The two endpoints come from the
   granule's provenance history; their clocks are usually *ordered* —
   that is the point: the sync structure looked fine, yet the applied
   values broke the serial spec. *)
let of_atomicity ~node ~offset ~len ~flagged ?prior ~window ~detail () =
  let datum_clock = match prior with Some p -> p.clock | None -> [||] in
  build ~cause:"atomicity" ~node ~offset ~len ~against:"serial-spec"
    ~flagged ~datum_clock ~prior ~window ~detail

(* ---------- rendering ---------- *)

let clock_to_string c =
  let buf = Buffer.create 32 in
  Buffer.add_char buf '[';
  Array.iteri
    (fun i v ->
      if i > 0 then Buffer.add_char buf ' ';
      Buffer.add_string buf (string_of_int v))
    c;
  Buffer.add_char buf ']';
  Buffer.contents buf

let time_to_string ts =
  if ts < 0. then "?" else Printf.sprintf "t=%.3f" ts

let access_line ~label a =
  Printf.sprintf "  %s: %s by P%d at %s%s, clock %s" label a.kind a.pid
    (time_to_string a.time)
    (if a.op >= 0 then Printf.sprintf " (op %d)" a.op else "")
    (clock_to_string a.clock)

let components_line ~word cs count =
  let shown =
    String.concat ", "
      (List.map
         (fun (i, x, y) -> Printf.sprintf "c%d (%d %s %d)" i x word y)
         cs)
  in
  let extra = count - List.length cs in
  if extra > 0 then Printf.sprintf "%s, … %d more" shown extra else shown

let sync_edge_to_string = function
  | Lock_handoff { node; offset; len; from_pid; to_pid; released; acquired }
    ->
      Printf.sprintf
        "lock hand-off on node %d words [%d,%d): P%d released at %s, P%d \
         acquired at %s"
        node offset (offset + len) from_pid (time_to_string released) to_pid
        (time_to_string acquired)
  | Message { src; dst; op; label; sent; delivered } ->
      Printf.sprintf "message %s (op %d) %d→%d, sent %s, delivered %s" label
        op src dst (time_to_string sent) (time_to_string delivered)
  | Rmw_serialization { node; origin; offset; len; kind; time } ->
      Printf.sprintf "rmw %s on node %d words [%d,%d) from P%d at %s" kind
        node offset (offset + len) origin (time_to_string time)

let to_text t =
  let buf = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "==================";
  (match t.cause with
  | "race" ->
      line "WARNING: data race on node %d words [%d,%d)" t.node t.offset
        (t.offset + t.len)
  | _ ->
      line "WARNING: atomicity violation on node %d words [%d,%d)" t.node
        t.offset (t.offset + t.len));
  if t.detail <> "" then line "  (%s)" t.detail;
  line "%s" (access_line ~label:"flagged access" t.flagged);
  (match t.prior with
  | Some p -> line "%s" (access_line ~label:"prior conflicting access" p)
  | None ->
      line "  prior conflicting access: not retained (raise provenance_depth)");
  if Array.length t.datum_clock > 0 then begin
    line "  incomparable with the granule's %s clock %s:" t.against
      (clock_to_string t.datum_clock);
    if t.ahead_count > 0 then
      line "    accessor ahead at %s"
        (components_line ~word:">" t.ahead t.ahead_count);
    if t.behind_count > 0 then
      line "    accessor behind at %s"
        (components_line ~word:"<" t.behind t.behind_count);
    if t.ahead_count = 0 || t.behind_count = 0 then
      line "    (clocks are ordered — not a happens-before race)"
  end;
  let endpoints =
    match t.prior with
    | Some p -> Printf.sprintf "P%d and P%d" p.pid t.flagged.pid
    | None -> Printf.sprintf "P%d and its peers" t.flagged.pid
  in
  (match t.sync_edge with
  | Some e ->
      line "  last sync edge between %s: %s" endpoints (sync_edge_to_string e);
      if t.cause = "race" then
        line "    — it did not order the two accesses: the clocks above are \
              still incomparable"
  | None ->
      line
        "  no sync edge (lock hand-off, message, or RMW) between %s in the \
         recorded window of %d events — nothing could have ordered them"
        endpoints t.window_events);
  (match t.chain with
  | [] -> ()
  | ms ->
      line "  recent messages touching the endpoints:";
      List.iter
        (fun m ->
          line "    %s → delivered %s  %d→%d  %s (op %d)"
            (time_to_string m.m_sent)
            (time_to_string m.m_delivered)
            m.m_src m.m_dst m.m_label m.m_op)
        ms);
  line "==================";
  Buffer.contents buf

(* ---------- JSON ---------- *)

module W = Json_writer

let json_access buf a =
  W.obj buf
    [
      ("pid", Int a.pid);
      ("kind", String a.kind);
      ("time", Fixed (6, a.time));
      ("op", Int a.op);
      ("event_id", Int a.event_id);
      ("clock", Ints a.clock);
    ]

let json_components =
  W.list (fun buf (i, x, y) ->
      W.obj buf [ ("c", Int i); ("accessor", Int x); ("datum", Int y) ])

let json_sync_edge buf = function
  | Lock_handoff { node; offset; len; from_pid; to_pid; released; acquired }
    ->
      W.obj buf
        [
          ("type", String "lock_handoff");
          ("node", Int node);
          ("offset", Int offset);
          ("len", Int len);
          ("from_pid", Int from_pid);
          ("to_pid", Int to_pid);
          ("released", Fixed (6, released));
          ("acquired", Fixed (6, acquired));
        ]
  | Message { src; dst; op; label; sent; delivered } ->
      W.obj buf
        [
          ("type", String "message");
          ("src", Int src);
          ("dst", Int dst);
          ("op", Int op);
          ("label", String label);
          ("sent", Fixed (6, sent));
          ("delivered", Fixed (6, delivered));
        ]
  | Rmw_serialization { node; origin; offset; len; kind; time } ->
      W.obj buf
        [
          ("type", String "rmw");
          ("node", Int node);
          ("origin", Int origin);
          ("offset", Int offset);
          ("len", Int len);
          ("kind", String kind);
          ("time", Fixed (6, time));
        ]

let json_msg buf m =
  W.obj buf
    [
      ("src", Int m.m_src);
      ("dst", Int m.m_dst);
      ("op", Int m.m_op);
      ("label", String m.m_label);
      ("sent", Fixed (6, m.m_sent));
      ("delivered", Fixed (6, m.m_delivered));
    ]

let granule t : (string * W.value) list =
  [ ("node", Int t.node); ("offset", Int t.offset); ("len", Int t.len) ]

let json_incomparable buf t =
  Buffer.add_char buf '{';
  W.key buf "ahead";
  json_components buf t.ahead;
  W.field buf "ahead_count" W.int t.ahead_count;
  W.field buf "behind" json_components t.behind;
  W.field buf "behind_count" W.int t.behind_count;
  Buffer.add_char buf '}'

let to_json buf t =
  Buffer.add_char buf '{';
  W.key buf "cause";
  W.string buf t.cause;
  W.field buf "granule" W.obj (granule t);
  W.field buf "against" W.string t.against;
  W.field buf "flagged" json_access t.flagged;
  W.field buf "prior" (W.option json_access) t.prior;
  W.field buf "datum_clock" W.value (Ints t.datum_clock);
  W.field buf "incomparable" json_incomparable t;
  W.field buf "sync_edge" (W.option json_sync_edge) t.sync_edge;
  W.field buf "chain" (W.list json_msg) t.chain;
  W.field buf "window_events" W.int t.window_events;
  W.field buf "detail" W.string t.detail;
  Buffer.add_char buf '}'

let list_to_json ts =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"explanations\":[\n";
  List.iteri
    (fun i t ->
      if i > 0 then Buffer.add_string buf ",\n";
      to_json buf t)
    ts;
  Buffer.add_string buf "\n]}\n";
  Buffer.contents buf

(* ---------- Perfetto annotations ---------- *)

let annotate tl t =
  let ts a = if a.time < 0. then 0. else a.time in
  Timeline.add_instant tl ~pid:t.flagged.pid
    ~name:(Printf.sprintf "explained: %s endpoint" t.cause)
    ~cat:"explain" ~ts:(ts t.flagged)
    ~args:(granule t @ [ ("kind", String t.flagged.kind) ]);
  match t.prior with
  | None -> ()
  | Some p ->
      Timeline.add_instant tl ~pid:p.pid
        ~name:(Printf.sprintf "explained: prior %s" p.kind)
        ~cat:"explain" ~ts:(ts p)
        ~args:(granule t);
      (* flow arrow from the prior access to the flagged one — the
         unordered pair Perfetto users should be staring at *)
      Timeline.add_flow_pair tl ~src:p.pid ~dst:t.flagged.pid
        ~name:(Printf.sprintf "unordered %s/%s" p.kind t.flagged.kind)
        ~ts_start:(ts p)
        ~ts_end:(Float.max (ts t.flagged) (ts p))
