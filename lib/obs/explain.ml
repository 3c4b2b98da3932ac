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

type msg = {
  m_src : int;
  m_dst : int;
  m_op : int;
  m_label : string;
  m_sent : float; (* -1. if the send fell out of the window *)
  m_delivered : float;
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
  | Message of msg (* a delivery between the two endpoints *)
  | Rmw_serialization of {
      node : int;
      origin : int;
      offset : int;
      len : int;
      kind : string;
      time : float;
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

(* ---------- the window index ---------- *)

(* What [find_sync] reads of the window, in window order: the lock and
   RMW events, and every delivery. *)
type step = Sync of Probe.event | Delivery of msg

type index = {
  deliveries : msg array; (* window order, each paired with its send *)
  steps : step array;
  events : int; (* events in the window *)
}

(* One pass over the window: a delivery is paired with the latest
   earlier send of the same (src, dst, op) — [m_sent = -1.] when that
   send predates the window — and its label is rendered here, once,
   for every race that prints it. *)
let index window =
  let sent : (int * int * int, float) Hashtbl.t = Hashtbl.create 64 in
  let deliveries = ref [] and steps = ref [] and events = ref 0 in
  List.iter
    (fun ev ->
      incr events;
      match (ev : Probe.event) with
      | Msg_sent { time; src; dst; msg } ->
          Hashtbl.replace sent (src, dst, msg.Msg.op) time
      | Msg_delivered { time; src; dst; msg } ->
          let m =
            {
              m_src = src;
              m_dst = dst;
              m_op = msg.Msg.op;
              m_label = Msg.label msg;
              m_sent =
                (match Hashtbl.find_opt sent (src, dst, msg.Msg.op) with
                | Some t0 -> t0
                | None -> -1.);
              m_delivered = time;
            }
          in
          deliveries := m :: !deliveries;
          steps := Delivery m :: !steps
      | Lock_acquired _ | Lock_released _ | Rmw _ -> steps := Sync ev :: !steps
      | _ -> ())
    window;
  {
    deliveries = Array.of_list (List.rev !deliveries);
    steps = Array.of_list (List.rev !steps);
    events = !events;
  }

(* Delivered messages touching either endpoint, oldest first: the most
   recent [chain_cap] of them. *)
let message_chain idx ~p1 ~p2 =
  let rec back i n acc =
    if i < 0 || n = chain_cap then acc
    else
      let m = idx.deliveries.(i) in
      if involves m.m_src ~p1 ~p2 || involves m.m_dst ~p1 ~p2 then
        back (i - 1) (n + 1) (m :: acc)
      else back (i - 1) n acc
  in
  back (Array.length idx.deliveries - 1) 0 []

let edge_time = function
  | Lock_handoff { acquired; _ } -> acquired
  | Message m -> m.m_delivered
  | Rmw_serialization { time; _ } -> time

(* On equal times a later-scanned candidate wins, so the choice is a
   deterministic function of window order. *)
let better cand best =
  match best with None -> true | Some b -> edge_time cand >= edge_time b

(* The most recent event in the window that could have ordered the two
   endpoints: a lock hand-off on the racing granule, a protocol message
   between them, or an RMW serialization on the granule. Only [p1] and
   [p2] can release, so two cells stand for a per-pid release table. *)
let find_sync idx ~p1 ~p2 ~node ~offset ~len =
  let best = ref None in
  let consider c = if better c !best then best := Some c in
  let released1 = ref None and released2 = ref None in
  Array.iter
    (function
      | Sync (Lock_released { time; pid; node = n'; offset = o'; len = l' })
        when involves pid ~p1 ~p2 && overlaps ~node ~offset ~len n' o' l' ->
          if pid = p1 then released1 := Some time else released2 := Some time
      | Sync (Lock_acquired { time; pid; node = n'; offset = o'; len = l' })
        when involves pid ~p1 ~p2 && overlaps ~node ~offset ~len n' o' l' -> (
          let other = if pid = p1 then p2 else p1 in
          match if other = p1 then !released1 else !released2 with
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
      | Delivery m
        when p2 >= 0
             && ((m.m_src = p1 && m.m_dst = p2)
                || (m.m_src = p2 && m.m_dst = p1)) ->
          consider (Message m)
      | Sync (Rmw { time; node = n'; origin; offset = o'; len = l'; kind })
        when overlaps ~node ~offset ~len n' o' l' ->
          consider
            (Rmw_serialization
               { node = n'; origin; offset = o'; len = l'; kind; time })
      | Sync _ | Delivery _ -> ())
    idx.steps;
  !best

let build ~cause ~node ~offset ~len ~against ~flagged ~datum_clock ~prior
    ~index ~detail =
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
    sync_edge = find_sync index ~p1 ~p2 ~node ~offset ~len;
    chain = message_chain index ~p1 ~p2;
    window_events = index.events;
    detail;
  }

let of_race ~node ~offset ~len ~against ~flagged ~datum_clock ?prior ~index
    () =
  build ~cause:"race" ~node ~offset ~len ~against ~flagged ~datum_clock
    ~prior ~index ~detail:""

(* Atomicity fallback: a serial-spec violation with zero race signals
   (e.g. a planted RMW-atomicity bug). The two endpoints come from the
   granule's provenance history; their clocks are usually *ordered* —
   that is the point: the sync structure looked fine, yet the applied
   values broke the serial spec. *)
let of_atomicity ~node ~offset ~len ~flagged ?prior ~index ~detail () =
  let datum_clock = match prior with Some p -> p.clock | None -> [||] in
  build ~cause:"atomicity" ~node ~offset ~len ~against:"serial-spec"
    ~flagged ~datum_clock ~prior ~index ~detail

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
  | Message m ->
      Printf.sprintf "message %s (op %d) %d→%d, sent %s, delivered %s"
        m.m_label m.m_op m.m_src m.m_dst (time_to_string m.m_sent)
        (time_to_string m.m_delivered)
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

(* Fixed keys are written as literals (separator, quoted key, colon):
   none of them needs escaping, and a literal costs one blit. *)
let add = Buffer.add_string

let json_access buf a =
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

(* A message's members and closing brace: a chain entry opens with
   ["{"], a message sync edge with its ["type"] member. *)
let json_msg_members buf m =
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

let json_sync_edge buf = function
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

let to_json buf t =
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

(* An explanation is about 1.5 KiB of JSON: size the buffer for all of
   them up front so it never regrows. *)
let list_to_json ts =
  let buf = Buffer.create (32 + (1536 * List.length ts)) in
  Buffer.add_string buf "{\"explanations\":[\n";
  List.iteri
    (fun i t ->
      if i > 0 then Buffer.add_string buf ",\n";
      to_json buf t)
    ts;
  Buffer.add_string buf "\n]}\n";
  Buffer.contents buf

(* ---------- Perfetto annotations ---------- *)

let granule t : (string * W.value) list =
  [ ("node", Int t.node); ("offset", Int t.offset); ("len", Int t.len) ]

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
