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

(* [involves] is symmetric when [p2 >= 0]: both orders of such a pair
   name the same endpoints, so they share one key. *)
let pair_key ~p1 ~p2 = if p2 >= 0 && p2 < p1 then (p2, p1) else (p1, p2)

(* ---------- the window index ---------- *)

(* What [find_sync] reads of the window, in window order: the lock and
   RMW events, and every delivery. *)
type step = Sync of Probe.event | Delivery of msg

type index = {
  deliveries : msg array; (* window order, each paired with its send *)
  steps : step array;
  events : int; (* events in the window *)
  chains : (int * int, msg list) Hashtbl.t;
      (* [message_chain]'s memo, by [pair_key]: every race of one pair
         in this report shares one list *)
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
    chains = Hashtbl.create 16;
  }

(* Delivered messages touching either endpoint, oldest first: the most
   recent [chain_cap] of them. A function of the window and the pair
   alone, so it is scanned once per pair and the list memoized. *)
let message_chain idx ~p1 ~p2 =
  let ((p1, p2) as key) = pair_key ~p1 ~p2 in
  match Hashtbl.find_opt idx.chains key with
  | Some chain -> chain
  | None ->
      let rec back i n acc =
        if i < 0 || n = chain_cap then acc
        else
          let m = idx.deliveries.(i) in
          if involves m.m_src ~p1 ~p2 || involves m.m_dst ~p1 ~p2 then
            back (i - 1) (n + 1) (m :: acc)
          else back (i - 1) n acc
      in
      let chain = back (Array.length idx.deliveries - 1) 0 [] in
      Hashtbl.add idx.chains key chain;
      chain

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

module W = Json_writer

(* Fixed text is written as literals, numbers through the JSON writer's
   int and ["%.Nf"] writers: every line streams into the one buffer. *)
let add = Buffer.add_string

let nl buf = Buffer.add_char buf '\n'

let text_clock buf c =
  Buffer.add_char buf '[';
  Array.iteri
    (fun i v ->
      if i > 0 then Buffer.add_char buf ' ';
      W.int buf v)
    c;
  Buffer.add_char buf ']'

let text_time buf ts =
  if ts < 0. then add buf "?"
  else begin
    add buf "t=";
    W.fixed 3 buf ts
  end

let text_pid buf pid =
  Buffer.add_char buf 'P';
  W.int buf pid

let text_words buf ~node ~offset ~len =
  add buf "node ";
  W.int buf node;
  add buf " words [";
  W.int buf offset;
  Buffer.add_char buf ',';
  W.int buf (offset + len);
  Buffer.add_char buf ')'

let text_access buf ~label a =
  add buf "  ";
  add buf label;
  add buf ": ";
  add buf a.kind;
  add buf " by ";
  text_pid buf a.pid;
  add buf " at ";
  text_time buf a.time;
  if a.op >= 0 then begin
    add buf " (op ";
    W.int buf a.op;
    Buffer.add_char buf ')'
  end;
  add buf ", clock ";
  text_clock buf a.clock;
  nl buf

let text_components buf ~word cs count =
  List.iteri
    (fun k (i, x, y) ->
      if k > 0 then add buf ", ";
      Buffer.add_char buf 'c';
      W.int buf i;
      add buf " (";
      W.int buf x;
      Buffer.add_char buf ' ';
      add buf word;
      Buffer.add_char buf ' ';
      W.int buf y;
      Buffer.add_char buf ')')
    cs;
  let extra = count - List.length cs in
  if extra > 0 then begin
    add buf ", … ";
    W.int buf extra;
    add buf " more"
  end;
  nl buf

let text_sync_edge buf = function
  | Lock_handoff { node; offset; len; from_pid; to_pid; released; acquired }
    ->
      add buf "lock hand-off on ";
      text_words buf ~node ~offset ~len;
      add buf ": ";
      text_pid buf from_pid;
      add buf " released at ";
      text_time buf released;
      add buf ", ";
      text_pid buf to_pid;
      add buf " acquired at ";
      text_time buf acquired
  | Message m ->
      add buf "message ";
      add buf m.m_label;
      add buf " (op ";
      W.int buf m.m_op;
      add buf ") ";
      W.int buf m.m_src;
      add buf "→";
      W.int buf m.m_dst;
      add buf ", sent ";
      text_time buf m.m_sent;
      add buf ", delivered ";
      text_time buf m.m_delivered
  | Rmw_serialization { node; origin; offset; len; kind; time } ->
      add buf "rmw ";
      add buf kind;
      add buf " on ";
      text_words buf ~node ~offset ~len;
      add buf " from ";
      text_pid buf origin;
      add buf " at ";
      text_time buf time

let text_endpoints buf t =
  match t.prior with
  | Some p ->
      text_pid buf p.pid;
      add buf " and ";
      text_pid buf t.flagged.pid
  | None ->
      text_pid buf t.flagged.pid;
      add buf " and its peers"

let rule = "==================\n"

(* An explanation's text is about 1.3 KiB. *)
let to_text t =
  let buf = Buffer.create 2048 in
  add buf rule;
  add buf
    (match t.cause with
    | "race" -> "WARNING: data race on "
    | _ -> "WARNING: atomicity violation on ");
  text_words buf ~node:t.node ~offset:t.offset ~len:t.len;
  nl buf;
  if t.detail <> "" then begin
    add buf "  (";
    add buf t.detail;
    add buf ")\n"
  end;
  text_access buf ~label:"flagged access" t.flagged;
  (match t.prior with
  | Some p -> text_access buf ~label:"prior conflicting access" p
  | None ->
      add buf
        "  prior conflicting access: not retained (raise provenance_depth)\n");
  if Array.length t.datum_clock > 0 then begin
    add buf "  incomparable with the granule's ";
    add buf t.against;
    add buf " clock ";
    text_clock buf t.datum_clock;
    add buf ":\n";
    if t.ahead_count > 0 then begin
      add buf "    accessor ahead at ";
      text_components buf ~word:">" t.ahead t.ahead_count
    end;
    if t.behind_count > 0 then begin
      add buf "    accessor behind at ";
      text_components buf ~word:"<" t.behind t.behind_count
    end;
    if t.ahead_count = 0 || t.behind_count = 0 then
      add buf "    (clocks are ordered — not a happens-before race)\n"
  end;
  (match t.sync_edge with
  | Some e ->
      add buf "  last sync edge between ";
      text_endpoints buf t;
      add buf ": ";
      text_sync_edge buf e;
      nl buf;
      if t.cause = "race" then
        add buf
          "    — it did not order the two accesses: the clocks above are \
           still incomparable\n"
  | None ->
      add buf
        "  no sync edge (lock hand-off, message, or RMW) between ";
      text_endpoints buf t;
      add buf " in the recorded window of ";
      W.int buf t.window_events;
      add buf " events — nothing could have ordered them\n");
  (match t.chain with
  | [] -> ()
  | ms ->
      add buf "  recent messages touching the endpoints:\n";
      List.iter
        (fun m ->
          add buf "    ";
          text_time buf m.m_sent;
          add buf " → delivered ";
          text_time buf m.m_delivered;
          add buf "  ";
          W.int buf m.m_src;
          add buf "→";
          W.int buf m.m_dst;
          add buf "  ";
          add buf m.m_label;
          add buf " (op ";
          W.int buf m.m_op;
          add buf ")\n")
        ms);
  add buf rule;
  Buffer.contents buf

(* ---------- JSON ---------- *)

(* Fixed keys are written as literals (separator, quoted key, colon):
   none of them needs escaping, and a literal costs one blit. *)

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

(* A document writes each distinct chain once: explanations of one pair
   from one index share its memoized list, so later ones blit the first
   one's fragment. [chains] maps a pair to the last list written for it
   and that list's JSON; a hit must be that very list ([==]), so chains
   of one pair from two windows are each written out. *)
let json_chain chains buf t =
  let key =
    pair_key ~p1:t.flagged.pid
      ~p2:(match t.prior with Some p -> p.pid | None -> -1)
  in
  match Hashtbl.find_opt chains key with
  | Some (written, json) when written == t.chain -> add buf json
  | _ ->
      let start = Buffer.length buf in
      W.list json_msg buf t.chain;
      Hashtbl.replace chains key
        (t.chain, Buffer.sub buf start (Buffer.length buf - start))

let to_json chains buf t =
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
  json_chain chains buf t;
  add buf ",\"window_events\":";
  W.int buf t.window_events;
  add buf ",\"detail\":";
  W.string buf t.detail;
  Buffer.add_char buf '}'

(* An explanation is about 1.5 KiB of JSON: size the buffer for all of
   them up front so it never regrows. The chain cache lives in this one
   call: no state outlives the document or crosses domains. *)
let list_to_json ts =
  let buf = Buffer.create (32 + (1536 * List.length ts)) in
  let chains = Hashtbl.create 16 in
  Buffer.add_string buf "{\"explanations\":[\n";
  List.iteri
    (fun i t ->
      if i > 0 then Buffer.add_string buf ",\n";
      to_json chains buf t)
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
