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

let overlaps ~(node : int) ~offset ~len node' offset' len' =
  node = node' && offset < offset' + len' && offset' < offset + len

let clock_entry c i = if i < Array.length c then c.(i) else 0

(* Components where one clock is strictly ahead of the other — the
   exact coordinates that make the pair incomparable. [~ahead:true] is
   the side where the accessor is ahead of the datum, [~ahead:false]
   the side where it is behind. *)
let on_side ~ahead (x : int) y = if ahead then x > y else y > x

let side_count ~ahead a d =
  let n = ref 0 in
  for i = 0 to Int.max (Array.length a) (Array.length d) - 1 do
    if on_side ~ahead (clock_entry a i) (clock_entry d i) then incr n
  done;
  !n

(* The first [component_cap] of a side's [count] components, in
   ascending order. Scanning down, a component's rank is how many of
   its side are still below it, so only the kept ones are built. *)
let side_components ~ahead ~count a d =
  let rec down i rank acc =
    if i < 0 then acc
    else
      let x = clock_entry a i and y = clock_entry d i in
      if on_side ~ahead x y then
        let rank = rank - 1 in
        down (i - 1) rank
          (if rank < component_cap then (i, x, y) :: acc else acc)
      else down (i - 1) rank acc
  in
  down (Int.max (Array.length a) (Array.length d) - 1) count []

let involves pid ~p1 ~p2 = pid = p1 || (p2 >= 0 && pid = p2)

(* [involves] is symmetric when [p2 >= 0]: both orders of such a pair
   name the same endpoints, so they share one key. So do a delivery's
   two directions. *)
let pair_key ~p1 ~p2 =
  let code lo hi = (lo lsl 31) lor (hi + 1) in
  if p2 >= 0 && p2 < p1 then code p2 p1 else code p1 p2

(* ---------- the window index ---------- *)

(* Tables keyed by [pair_key]: an int hash and equality, no C call. *)
module Pairs = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash k = (k lxor (k lsr 31)) land max_int
end)

(* Positions count the window's events from 0: the sync-edge search
   breaks time ties by them. *)
type index = {
  deliveries : msg array; (* window order, each paired with its send *)
  best_message : (int * msg) Pairs.t;
      (* by [pair_key] of (src, dst): the delivery with the greatest
         (delivered time, position) *)
  sync_steps : (int * float * Probe.event) array array;
      (* by node: its lock and RMW events, in window order, with their
         positions and times *)
  events : int; (* events in the window *)
  chains : msg list Pairs.t;
      (* [message_chain]'s memo, by [pair_key]: every race of one pair
         in this report shares one list *)
}

(* [(t, pos)] comes after [(t', pos')]: later in time, or as late and
   later in the window. A forward scan that keeps a candidate whenever
   its time is at least the best one's ends on the last candidate in
   this order, since simulated times are never NaN. *)
let later (t : float) pos t' pos' = t > t' || (t = t' && pos > pos')

(* One pass over the window: a delivery is paired with the latest
   earlier send of the same (src, dst, op) — [m_sent = -1.] when that
   send predates the window — and its label is rendered here, once,
   for every race that prints it. *)
let index window =
  let sent : (int * int * int, float) Hashtbl.t = Hashtbl.create 64 in
  let best_message = Pairs.create 16 and by_node = Hashtbl.create 16 in
  let deliveries = ref [] and events = ref 0 in
  List.iter
    (fun (time, ev) ->
      let pos = !events in
      incr events;
      match (ev : Probe.event) with
      | Msg_sent { src; dst; msg } ->
          Hashtbl.replace sent (src, dst, Msg.op msg) time
      | Msg_delivered { src; dst; msg } ->
          let op = Msg.op msg in
          let m =
            {
              m_src = src;
              m_dst = dst;
              m_op = op;
              m_label = Msg.label msg;
              m_sent =
                (match Hashtbl.find_opt sent (src, dst, op) with
                | Some t0 -> t0
                | None -> -1.);
              m_delivered = time;
            }
          in
          deliveries := m :: !deliveries;
          let key = pair_key ~p1:src ~p2:dst in
          (match Pairs.find_opt best_message key with
          | Some (pos', m') when not (later time pos m'.m_delivered pos') -> ()
          | _ -> Pairs.replace best_message key (pos, m))
      | Lock_acquired { node; _ }
      | Lock_released { node; _ }
      | Atomic_applied { node; _ }
      | Acc_applied { node; _ } ->
          let steps =
            match Hashtbl.find_opt by_node node with Some l -> l | None -> []
          in
          Hashtbl.replace by_node node ((pos, time, ev) :: steps)
      | _ -> ())
    window;
  let sync_steps =
    Array.make (Hashtbl.fold (fun node _ n -> Int.max n (node + 1)) by_node 0) [||]
  in
  Hashtbl.iter
    (fun node steps -> sync_steps.(node) <- Array.of_list (List.rev steps))
    by_node;
  {
    deliveries = Array.of_list (List.rev !deliveries);
    best_message;
    sync_steps;
    events = !events;
    chains = Pairs.create 16;
  }

(* Delivered messages touching either endpoint, oldest first: the most
   recent [chain_cap] of them. A function of the window and the pair
   alone, so it is scanned once per pair and the list memoized. *)
let message_chain idx ~p1 ~p2 =
  let key = pair_key ~p1 ~p2 in
  match Pairs.find_opt idx.chains key with
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
      Pairs.add idx.chains key chain;
      chain

let edge_time = function
  | Lock_handoff { acquired; _ } -> acquired
  | Message m -> m.m_delivered
  | Rmw_serialization { time; _ } -> time

(* An RMW apply on node [n'] words [\[o', o' + l')] at [time], the
   candidate edge when it touches the granule. *)
let rmw_edge ~node ~offset ~len ~time n' origin o' l' kind =
  if overlaps ~node ~offset ~len n' o' l' then
    Some
      (Rmw_serialization
         { node = n'; origin; offset = o'; len = l'; kind; time })
  else None

(* The most recent event in the window that could have ordered the two
   endpoints: a lock hand-off on the racing granule, a protocol message
   between them, or an RMW serialization on the granule. The choice is
   the candidate with the greatest (edge time, window position), so on
   equal times the later one in the window wins, whatever order the
   window's times come in. A delivery between the two endpoints is a
   candidate wherever the granule is, and the index keeps only the
   pair's best; a lock hand-off or an RMW must touch the granule, so
   only the lock and RMW events of its node are scanned. Only [p1] and
   [p2] can release, so two cells stand for a per-pid release table. *)
let find_sync idx ~p1 ~p2 ~node ~offset ~len =
  let best = ref None and best_pos = ref (-1) in
  (if p2 >= 0 then
     match Pairs.find_opt idx.best_message (pair_key ~p1 ~p2) with
     | Some (pos, m) ->
         best := Some (Message m);
         best_pos := pos
     | None -> ());
  let steps =
    if node >= 0 && node < Array.length idx.sync_steps then
      idx.sync_steps.(node)
    else [||]
  in
  (* the last release by [p1] and by [p2] on the granule; NaN, which no
     acquisition follows, for none *)
  let released1 = ref Float.nan and released2 = ref Float.nan in
  for i = 0 to Array.length steps - 1 do
    let pos, time, (ev : Probe.event) = steps.(i) in
    let candidate =
      match ev with
      | Lock_released { pid; node = n'; offset = o'; len = l' }
        when involves pid ~p1 ~p2 && overlaps ~node ~offset ~len n' o' l' ->
          if pid = p1 then released1 := time else released2 := time;
          None
      | Lock_acquired { pid; node = n'; offset = o'; len = l' }
        when involves pid ~p1 ~p2 && overlaps ~node ~offset ~len n' o' l' ->
          let other = if pid = p1 then p2 else p1 in
          let released = if other = p1 then !released1 else !released2 in
          if released <= time then
            Some
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
          else None
      | Atomic_applied { node = n'; origin; offset = o'; kind; _ } ->
          rmw_edge ~node ~offset ~len ~time n' origin o' 1
            (Probe.atomic_name kind)
      | Acc_applied { node = n'; origin; offset = o'; aop; old; _ } ->
          rmw_edge ~node ~offset ~len ~time n' origin o' (Array.length old)
            (Probe.acc_name aop)
      | _ -> None
    in
    match (candidate, !best) with
    | Some c, Some b when not (later (edge_time c) pos (edge_time b) !best_pos)
      ->
        ()
    | Some _, _ ->
        best := candidate;
        best_pos := pos
    | None, _ -> ()
  done;
  !best

let build ~cause ~node ~offset ~len ~against ~flagged ~datum_clock ~prior
    ~index ~detail =
  let a = flagged.clock and d = datum_clock in
  let ahead_count = side_count ~ahead:true a d
  and behind_count = side_count ~ahead:false a d in
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
    ahead = side_components ~ahead:true ~count:ahead_count a d;
    ahead_count;
    behind = side_components ~ahead:false ~count:behind_count a d;
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

(* An explanation's text is 501 to 1,448 bytes on the benchmark's racy
   programs (seeds 4-11). A 1,536-byte buffer is 193 words, a minor
   heap block; a 2,048-byte one is 257 words, one more than the minor
   heap takes, so every explanation allocated it in the major heap. *)
let to_text t =
  let buf = Buffer.create 1536 in
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
   from one index share its memoized list, so later ones copy the first
   one's fragment. [chains] maps a pair to the last list rendered for
   it and that list's JSON; a hit must be that very list ([==]), so
   chains of one pair from two windows are each rendered. *)
let chain_fragment chains t =
  let key =
    pair_key ~p1:t.flagged.pid
      ~p2:(match t.prior with Some p -> p.pid | None -> -1)
  in
  match Pairs.find_opt chains key with
  | Some (rendered, json) when rendered == t.chain -> json
  | _ ->
      let buf = Buffer.create 1024 in
      W.list json_msg buf t.chain;
      let json = Buffer.contents buf in
      Pairs.replace chains key (t.chain, json);
      json

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
  add buf (chain_fragment chains t);
  add buf ",\"window_events\":";
  W.int buf t.window_events;
  add buf ",\"detail\":";
  W.string buf t.detail;
  Buffer.add_char buf '}'

(* ---------- JSON lengths ---------- *)

(* What each writer above writes, in bytes, computed without writing,
   item for item: [list_to_json] allocates the document at its exact
   length, so a report of any size is written once, with no regrowth
   and nothing reserved beyond it. *)
let lit = String.length

let access_length a =
  lit "{\"pid\":" + W.int_length a.pid
  + lit ",\"kind\":" + W.string_length a.kind
  + lit ",\"time\":" + W.fixed_length 6 a.time
  + lit ",\"op\":" + W.int_length a.op
  + lit ",\"event_id\":" + W.int_length a.event_id
  + lit ",\"clock\":" + W.ints_length a.clock
  + 1

let component_length (i, x, y) =
  lit "{\"c\":" + W.int_length i
  + lit ",\"accessor\":" + W.int_length x
  + lit ",\"datum\":" + W.int_length y
  + 1

let msg_members_length m =
  lit "\"src\":" + W.int_length m.m_src
  + lit ",\"dst\":" + W.int_length m.m_dst
  + lit ",\"op\":" + W.int_length m.m_op
  + lit ",\"label\":" + W.string_length m.m_label
  + lit ",\"sent\":" + W.fixed_length 6 m.m_sent
  + lit ",\"delivered\":" + W.fixed_length 6 m.m_delivered
  + 1

let sync_edge_length = function
  | Lock_handoff { node; offset; len; from_pid; to_pid; released; acquired }
    ->
      lit "{\"type\":\"lock_handoff\",\"node\":" + W.int_length node
      + lit ",\"offset\":" + W.int_length offset
      + lit ",\"len\":" + W.int_length len
      + lit ",\"from_pid\":" + W.int_length from_pid
      + lit ",\"to_pid\":" + W.int_length to_pid
      + lit ",\"released\":" + W.fixed_length 6 released
      + lit ",\"acquired\":" + W.fixed_length 6 acquired
      + 1
  | Message m -> lit "{\"type\":\"message\"," + msg_members_length m
  | Rmw_serialization { node; origin; offset; len; kind; time } ->
      lit "{\"type\":\"rmw\",\"node\":" + W.int_length node
      + lit ",\"origin\":" + W.int_length origin
      + lit ",\"offset\":" + W.int_length offset
      + lit ",\"len\":" + W.int_length len
      + lit ",\"kind\":" + W.string_length kind
      + lit ",\"time\":" + W.fixed_length 6 time
      + 1

(* [W.list]: brackets, a comma between elements, the elements. *)
let rec elements_length length n = function
  | [] -> n
  | x :: tl -> elements_length length (n + 1 + length x) tl

let list_length length = function
  | [] -> 2
  | x :: tl -> elements_length length (2 + length x) tl

let option_length length = function Some x -> length x | None -> 4

let json_length chains t =
  lit "{\"cause\":" + W.string_length t.cause
  + lit ",\"granule\":{\"node\":" + W.int_length t.node
  + lit ",\"offset\":" + W.int_length t.offset
  + lit ",\"len\":" + W.int_length t.len
  + lit "},\"against\":" + W.string_length t.against
  + lit ",\"flagged\":" + access_length t.flagged
  + lit ",\"prior\":" + option_length access_length t.prior
  + lit ",\"datum_clock\":" + W.ints_length t.datum_clock
  + lit ",\"incomparable\":{\"ahead\":" + list_length component_length t.ahead
  + lit ",\"ahead_count\":" + W.int_length t.ahead_count
  + lit ",\"behind\":" + list_length component_length t.behind
  + lit ",\"behind_count\":" + W.int_length t.behind_count
  + lit "},\"sync_edge\":" + option_length sync_edge_length t.sync_edge
  + lit ",\"chain\":" + lit (chain_fragment chains t)
  + lit ",\"window_events\":" + W.int_length t.window_events
  + lit ",\"detail\":" + W.string_length t.detail
  + 1

let header = "{\"explanations\":[\n"
let separator = ",\n"
let footer = "\n]}\n"

(* An explanation is 1,409 to 1,581 bytes of JSON on the benchmark's
   racy programs (seeds 4-11), so no constant per race sizes a report
   without regrowing or over-reserving: a first pass measures it. The
   document is then allocated once, at its exact length, and each
   explanation is written into a small scratch buffer and copied into
   it. A buffer copied into the result would be a second
   document-sized block: twice the allocation, and two large blocks
   that the C allocator can hand back to the system together and fault
   in again for the next report. Each distinct chain is rendered once,
   by the sizing pass. The chain cache lives in this one call: no state
   outlives the document or crosses domains. *)
let list_to_json ts =
  let chains = Pairs.create 16 in
  let rec size n = function
    | [] -> n
    | t :: tl -> size (n + lit separator + json_length chains t) tl
  in
  let body = match ts with [] -> 0 | _ -> size 0 ts - lit separator in
  let doc = Bytes.create (lit header + body + lit footer) in
  let at = ref 0 in
  let put s =
    Bytes.blit_string s 0 doc !at (lit s);
    at := !at + lit s
  in
  let scratch = Buffer.create 4096 in
  put header;
  List.iteri
    (fun i t ->
      if i > 0 then put separator;
      Buffer.clear scratch;
      to_json chains scratch t;
      Buffer.blit scratch 0 doc !at (Buffer.length scratch);
      at := !at + Buffer.length scratch)
    ts;
  put footer;
  assert (!at = Bytes.length doc);
  Bytes.unsafe_to_string doc

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
