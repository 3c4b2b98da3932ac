open Dsm_sim

(* The FIFO delivery floor of an edge: the latest arrival scheduled for
   in-order traffic on it. A float-only record, so the floor is updated
   in place without boxing. *)
type floor = { mutable last : float }

(* The reliable transport resends an unacked frame [retransmit_timeout]
   us after its last transmission and gives up after [max_retries]
   resends. *)
let retransmit_timeout = 25.0

let max_retries = 30

(* A frame of the reliable transport, as first transmitted. Its copies
   carry it to the receiver, whose ack of [seq] marks it [acked]; its
   sender keeps it until the edge's timer finds it so. [due] is when
   its next resend falls due. *)
type 'msg frame = {
  seq : int;
  msg : 'msg;
  words : int;
  wire_words : int;
  clock_words : int;
  mutable tries : int;
  mutable due : float;
  mutable acked : bool;
}

(* One (src, dst) edge: the FIFO floor, the caller's per-edge [state],
   and the reliable transport's state, which an unreliable fabric never
   touches. The sender numbers frames from [next_seq] and keeps them in
   [unacked], newest first; the edge's one retransmit timer is armed
   exactly while [unacked] is not empty, and drops the acked frames when
   it fires. The receiver delivers frame [expected] next and holds the
   frames that arrived ahead of it in [held], in seq order. *)
type ('msg, 'e) edge = {
  src : int;
  dst : int;
  floor : floor;
  state : 'e;
  mutable next_seq : int;
  mutable unacked : 'msg frame list;
  mutable expected : int;
  mutable held : 'msg frame list;
}

type ('msg, 'e) t = {
  sim : Engine.t;
  model : Latency.t;
  faults : Fault.t;
  reliable : bool;
  describe : 'msg -> string;
  new_state : unit -> 'e;
  rng : Prng.t;
  handlers : (src:int -> 'msg -> unit) option array;
  (* keyed by the packed edge [src * n + dst]: only edges that carry
     traffic cost memory *)
  edges : ('msg, 'e) edge Int_tbl.t;
  mutable messages : int;
  mutable words : int;
  mutable wire_words : int;
  mutable clock_words : int;
  mutable retransmits : int;
}

let loopback_delay = 0.05 (* us: memcpy through the local NIC *)

let create sim ~n ~latency ?(faults = Fault.none) ?(reliable = false) ~describe
    ~state () =
  if n < 1 then invalid_arg "Fabric.create: need at least one node";
  {
    sim;
    model = latency;
    faults;
    reliable;
    describe;
    new_state = state;
    rng = Prng.split (Engine.rng sim);
    handlers = Array.make n None;
    edges = Int_tbl.create 64;
    messages = 0;
    words = 0;
    wire_words = 0;
    clock_words = 0;
    retransmits = 0;
  }

let nodes t = Array.length t.handlers

let faults t = t.faults

let register t ~node f =
  if node < 0 || node >= nodes t then invalid_arg "Fabric.register: node";
  match t.handlers.(node) with
  | Some _ -> invalid_arg "Fabric.register: handler already registered"
  | None -> t.handlers.(node) <- Some f

(* An edge is made on its first send; its floor starts at 0.0, so
   nothing sent earlier can hold that send back. *)
let edge t ~src ~dst =
  if src < 0 || src >= nodes t then invalid_arg "Fabric.edge: src";
  if dst < 0 || dst >= nodes t then invalid_arg "Fabric.edge: dst";
  let key = (src * nodes t) + dst in
  match Int_tbl.find t.edges key with
  | e -> e
  | exception Not_found ->
      let e =
        { src; dst; floor = { last = 0. }; state = t.new_state ();
          next_seq = 0; unacked = []; expected = 0; held = [] }
      in
      Int_tbl.replace t.edges key e;
      e

let state e = e.state

let net_deliver t ~src ~dst =
  let probe = Engine.probe t.sim in
  if probe.on land Dsm_obs.Probe.net <> 0 then
    Dsm_obs.Probe.emit probe (Net_deliver { time = Engine.now t.sim; src; dst })

(* The handler a frame arriving at [dst] goes to. *)
let arrived t ~src ~dst =
  match t.handlers.(dst) with
  | None -> failwith (Printf.sprintf "Fabric: node %d has no handler" dst)
  | Some f ->
      net_deliver t ~src ~dst;
      f

(* The arrival of an in-order frame never precedes an earlier in-order
   send on the same edge, and never ties with it: past 2^24 us a 1e-9
   step rounds away, so the floor steps by at least one ulp. Reordered
   frames skip both the floor and the floor update: they overtake and
   are overtaken. *)
let floored e ~in_order arrival =
  if in_order then begin
    let floor = e.floor in
    let a =
      if arrival <= floor.last then
        Float.max (floor.last +. 1e-9) (Float.succ floor.last)
      else arrival
    in
    floor.last <- a;
    a
  end
  else arrival

(* One physical transmission on edge [e]: the counters, the latency
   model and the fault plan's draws, then the delivery event (and any
   duplicate of it) running [arrive]. *)
let transmit t e ~words ~wire_words ~clock_words ~fifo ~label arrive =
  let src = e.src and dst = e.dst in
  t.messages <- t.messages + 1;
  t.words <- t.words + words;
  t.wire_words <- t.wire_words + wire_words;
  t.clock_words <- t.clock_words + clock_words;
  let lf = Fault.link t.faults ~src ~dst in
  let now = Engine.now t.sim in
  let arrival =
    if src = dst then now +. loopback_delay
    else now +. Latency.delay t.model t.rng ~words
  in
  let arrival =
    if lf.Fault.jitter > 0. then
      arrival +. Prng.exponential t.rng ~mean:lf.Fault.jitter
    else arrival
  in
  let probe = Engine.probe t.sim in
  if lf.Fault.drop > 0. && Prng.bernoulli t.rng ~p:lf.Fault.drop then begin
    if probe.on land Dsm_obs.Probe.net <> 0 then begin
      Dsm_obs.Probe.emit probe
        (Net_send
           { time = now; src; dst; words; wire_words; clock_words; arrival });
      Dsm_obs.Probe.emit probe (Net_drop { time = now; src; dst })
    end
  end
  else begin
    let reorder =
      lf.Fault.reorder > 0. && Prng.bernoulli t.rng ~p:lf.Fault.reorder
    in
    let drawn =
      if reorder then arrival +. Prng.float t.rng lf.Fault.reorder_window
      else arrival
    in
    (* A caller can opt a frame out of FIFO ordering (weak memory-model
       backends reorder put lanes this way); it still never overtakes
       the floor update of ordered traffic it was sent after. *)
    let in_order = (not reorder) && fifo in
    let arrival = floored e ~in_order drawn in
    if probe.on land Dsm_obs.Probe.net <> 0 then begin
      Dsm_obs.Probe.emit probe
        (Net_send
           { time = now; src; dst; words; wire_words; clock_words; arrival });
      if reorder then
        Dsm_obs.Probe.emit probe (Net_reorder { time = now; src; dst })
    end;
    Engine.schedule_at t.sim ~label ~at:arrival arrive;
    if
      lf.Fault.duplicate > 0.
      && Prng.bernoulli t.rng ~p:lf.Fault.duplicate
    then begin
      if probe.on land Dsm_obs.Probe.net <> 0 then
        Dsm_obs.Probe.emit probe (Net_duplicate { time = now; src; dst });
      Engine.schedule_at t.sim ~label
        ~at:(floored e ~in_order (drawn +. 1e-9))
        arrive
    end
  end

(* ---------- the reliable transport ----------

   An RC-style transport over the faulty wire: every frame carries a
   per-edge sequence number, the receiver acks each copy it gets,
   drops duplicates and holds back frames that arrive ahead of their
   turn, and the sender resends a frame until its ack arrives. The
   handler therefore sees each posted frame exactly once, in per-edge
   send order. *)

(* [held] with [fr] in its seq-order place, unless a copy is there. *)
let rec hold fr = function
  | h :: rest when h.seq < fr.seq -> h :: hold fr rest
  | h :: _ as held when h.seq = fr.seq -> held
  | held -> fr :: held

let rec drain_held e f =
  match e.held with
  | fr :: rest when fr.seq = e.expected ->
      e.held <- rest;
      e.expected <- fr.seq + 1;
      f ~src:e.src fr.msg;
      drain_held e f
  | _ -> ()

(* A copy of [fr] reaches the receiver of [e]: ack this copy (the ack
   of an earlier one may have been lost), drop it if it was delivered
   already, and deliver what it unblocks: itself, when it is next in
   turn, and the held frames after it. *)
let received t e fr =
  let f = arrived t ~src:e.src ~dst:e.dst in
  transmit t
    (edge t ~src:e.dst ~dst:e.src)
    ~words:1 ~wire_words:1 ~clock_words:0 ~fifo:true
    ~label:(Label.v ~node:e.src ~origin:e.src)
    (fun () ->
      net_deliver t ~src:e.dst ~dst:e.src;
      fr.acked <- true);
  if fr.seq >= e.expected then e.held <- hold fr e.held;
  drain_held e f

(* One transmission of [fr], whose next resend falls due
   [retransmit_timeout] later. *)
let send_frame t e fr ~label =
  fr.due <- Engine.now t.sim +. retransmit_timeout;
  (* resequencing restores send order whatever the wire does, so every
     frame rides the FIFO floor *)
  transmit t e ~words:fr.words ~wire_words:fr.wire_words
    ~clock_words:fr.clock_words ~fifo:true ~label (fun () -> received t e fr)

(* The edge's retransmit timer fires: resend, in seq order, every
   unacked frame now due, then re-arm at the earliest due time left, or
   stay disarmed once every frame is acked. Once a frame's retry budget
   is spent the run aborts rather than hangs: a link that drops
   everything is dead, not slow. *)
let rec expire t e () =
  let now = Engine.now t.sim in
  let live = List.filter (fun fr -> not fr.acked) e.unacked in
  e.unacked <- live;
  List.iter
    (fun fr ->
      if fr.due <= now then begin
        fr.tries <- fr.tries + 1;
        if fr.tries > max_retries then
          failwith
            (Printf.sprintf
               "Fabric: P%d->P%d frame #%d undeliverable after %d \
                retransmits (%s)"
               e.src e.dst fr.seq max_retries (t.describe fr.msg));
        t.retransmits <- t.retransmits + 1;
        (let probe = Engine.probe t.sim in
         if probe.on land Dsm_obs.Probe.net <> 0 then
           Dsm_obs.Probe.emit probe
             (Retransmit
                { time = now; src = e.src; dst = e.dst; seq = fr.seq }));
        send_frame t e fr ~label:Label.unknown
      end)
    (List.rev live);
  match live with
  | [] -> ()
  | _ ->
      arm t e (List.fold_left (fun at fr -> Float.min at fr.due) infinity live)

and arm t e at = Engine.schedule_at t.sim ~label:Label.unknown ~at (expire t e)

let post t e ~words ~wire_words ~clock_words ~fifo ~label msg =
  (* [words] is the nominal size the latency model prices; [wire_words]
     is what the chosen encoding actually put on the wire, of which
     [clock_words] were clock piggyback. Keeping the two apart is what
     lets the wire encoding vary without perturbing a single delivery
     time. *)
  if words < 0 then invalid_arg "Fabric.post: negative size";
  if wire_words < 0 then invalid_arg "Fabric.post: negative wire size";
  if clock_words < 0 then invalid_arg "Fabric.post: negative clock size";
  if not t.reliable then
    transmit t e ~words ~wire_words ~clock_words ~fifo ~label (fun () ->
        (arrived t ~src:e.src ~dst:e.dst) ~src:e.src msg)
  else begin
    let fr =
      { seq = e.next_seq; msg; words; wire_words; clock_words; tries = 0;
        due = 0.; acked = false }
    in
    e.next_seq <- fr.seq + 1;
    send_frame t e fr ~label;
    (match e.unacked with [] -> arm t e fr.due | _ -> ());
    e.unacked <- fr :: e.unacked
  end

let messages_sent t = t.messages

let words_sent t = t.words

let wire_words_sent t = t.wire_words

let clock_words_sent t = t.clock_words

let retransmits t = t.retransmits

(* Arena reuse: restore the [create] state while keeping handlers
   registered. Must run after [Engine.reset] so that re-splitting the
   fabric generator consumes the same draw of the engine's root stream
   as [create] did — making a reset fabric bit-identical to a fresh
   one. *)
let reset t =
  Prng.resplit (Engine.rng t.sim) ~into:t.rng;
  Int_tbl.clear t.edges;
  t.messages <- 0;
  t.words <- 0;
  t.wire_words <- 0;
  t.clock_words <- 0;
  t.retransmits <- 0
