open Dsm_sim

(* The FIFO delivery floor of one (src, dst) edge: the latest arrival
   scheduled for in-order traffic on it. A float-only record, so the
   floor is updated in place without boxing. *)
type floor = { mutable last : float }

type reliability = unit

let reliability () = ()

(* The reliable transport resends an unacked frame every
   [retransmit_timeout] us and gives up after [max_retries] resends. *)
let retransmit_timeout = 25.0

let max_retries = 30

(* A frame its sender keeps, as first transmitted, until its ack comes
   back. *)
type 'msg unacked = {
  u_msg : 'msg;
  u_words : int;
  u_wire : int;
  u_clock : int;
  mutable u_tries : int;
}

(* The reliable transport's state for one (src, dst) edge: the sender's
   next sequence number and unacked frames, the receiver's next expected
   sequence number and the frames that arrived ahead of it. Both tables
   are keyed by sequence number. *)
type 'msg link = {
  mutable next_seq : int;
  unacked : 'msg unacked Int_tbl.t;
  mutable expected : int;
  held : 'msg Int_tbl.t;
}

type 'msg t = {
  sim : Engine.t;
  model : Latency.t;
  faults : Fault.t;
  reliable : bool;
  describe : 'msg -> string;
  rng : Prng.t;
  handlers : (src:int -> 'msg -> unit) option array;
  (* both keyed by the packed edge [src * n + dst]: only edges that
     carry traffic cost memory *)
  last_delivery : floor Int_tbl.t;
  links : 'msg link Int_tbl.t;
  mutable messages : int;
  mutable words : int;
  mutable wire_words : int;
  mutable clock_words : int;
  mutable dropped : int;
  mutable duplicated : int;
  mutable retransmits : int;
}

let loopback_delay = 0.05 (* us: memcpy through the local NIC *)

let create sim ~n ~latency ?(faults = Fault.none) ?reliability ~describe () =
  if n < 1 then invalid_arg "Fabric.create: need at least one node";
  {
    sim;
    model = latency;
    faults;
    reliable = Option.is_some reliability;
    describe;
    rng = Prng.split (Engine.rng sim);
    handlers = Array.make n None;
    last_delivery = Int_tbl.create 64;
    links = Int_tbl.create 64;
    messages = 0;
    words = 0;
    wire_words = 0;
    clock_words = 0;
    dropped = 0;
    duplicated = 0;
    retransmits = 0;
  }

let nodes t = Array.length t.handlers

let faults t = t.faults

let register t ~node f =
  if node < 0 || node >= nodes t then invalid_arg "Fabric.register: node";
  match t.handlers.(node) with
  | Some _ -> invalid_arg "Fabric.register: handler already registered"
  | None -> t.handlers.(node) <- Some f

let net_deliver t ~src ~dst =
  let probe = Engine.probe t.sim in
  if probe.on then
    Dsm_obs.Probe.emit probe (Net_deliver { time = Engine.now t.sim; src; dst })

(* The handler a frame arriving at [dst] goes to. *)
let arrived t ~src ~dst =
  match t.handlers.(dst) with
  | None -> failwith (Printf.sprintf "Fabric: node %d has no handler" dst)
  | Some f ->
      net_deliver t ~src ~dst;
      f

(* An edge's floor is made on its first in-order send and starts at
   0.0: nothing sent earlier can hold that send back. *)
let edge_floor t ~src ~dst =
  let key = (src * nodes t) + dst in
  match Int_tbl.find t.last_delivery key with
  | floor -> floor
  | exception Not_found ->
      let floor = { last = 0. } in
      Int_tbl.replace t.last_delivery key floor;
      floor

(* The arrival of an in-order frame never precedes an earlier in-order
   send on the same (src, dst) pair, and never ties with it: past 2^24
   us a 1e-9 step rounds away, so the floor steps by at least one ulp.
   Reordered frames skip both the floor and the floor update: they
   overtake and are overtaken. *)
let floored t ~src ~dst ~in_order arrival =
  if in_order then begin
    let floor = edge_floor t ~src ~dst in
    let a =
      if arrival <= floor.last then
        Float.max (floor.last +. 1e-9) (Float.succ floor.last)
      else arrival
    in
    floor.last <- a;
    a
  end
  else arrival

(* One physical transmission: the counters, the latency model and the
   fault plan's draws, then the delivery event (and any duplicate of
   it) running [arrive]. *)
let transmit t ~src ~dst ~words ~wire_words ~clock_words ~fifo ~label arrive =
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
    t.dropped <- t.dropped + 1;
    if probe.on then begin
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
    let arrival =
      if reorder then arrival +. Prng.float t.rng lf.Fault.reorder_window
      else arrival
    in
    (* A caller can opt a frame out of FIFO ordering (weak memory-model
       backends reorder put lanes this way); it still never overtakes
       the floor update of ordered traffic it was sent after. *)
    let in_order = (not reorder) && fifo in
    let at = floored t ~src ~dst ~in_order arrival in
    if probe.on then begin
      Dsm_obs.Probe.emit probe
        (Net_send
           {
             time = now;
             src;
             dst;
             words;
             wire_words;
             clock_words;
             arrival = at;
           });
      if reorder then
        Dsm_obs.Probe.emit probe (Net_reorder { time = now; src; dst })
    end;
    Engine.schedule_at t.sim ~label ~at arrive;
    if
      lf.Fault.duplicate > 0.
      && Prng.bernoulli t.rng ~p:lf.Fault.duplicate
    then begin
      t.duplicated <- t.duplicated + 1;
      if probe.on then
        Dsm_obs.Probe.emit probe (Net_duplicate { time = now; src; dst });
      Engine.schedule_at t.sim ~label
        ~at:(floored t ~src ~dst ~in_order (arrival +. 1e-9))
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

let edge_link t ~src ~dst =
  let key = (src * nodes t) + dst in
  match Int_tbl.find t.links key with
  | link -> link
  | exception Not_found ->
      let link =
        {
          next_seq = 0;
          unacked = Int_tbl.create 8;
          expected = 0;
          held = Int_tbl.create 8;
        }
      in
      Int_tbl.replace t.links key link;
      link

let rec drain_held link f ~src =
  match Int_tbl.find link.held link.expected with
  | exception Not_found -> ()
  | msg ->
      Int_tbl.remove link.held link.expected;
      link.expected <- link.expected + 1;
      f ~src msg;
      drain_held link f ~src

(* Frame [seq] of [link], the edge [src -> dst], reaches [dst]: ack this
   copy (the ack of an earlier one may have been lost), then deliver it
   and whatever it unblocks, or drop it as a duplicate, or hold it
   back. *)
let received t link ~src ~dst ~seq msg =
  let f = arrived t ~src ~dst in
  transmit t ~src:dst ~dst:src ~words:1 ~wire_words:1 ~clock_words:0
    ~fifo:true
    ~label:(Label.v ~node:src ~origin:src)
    (fun () ->
      net_deliver t ~src:dst ~dst:src;
      Int_tbl.remove link.unacked seq);
  if seq = link.expected then begin
    link.expected <- seq + 1;
    f ~src msg;
    drain_held link f ~src
  end
  else if seq > link.expected then Int_tbl.replace link.held seq msg

(* While frame [seq] is unacked, resend it every [retransmit_timeout];
   once the retry budget is spent the run aborts rather than hangs: a
   link that drops everything is dead, not slow. *)
let rec arm_retransmit t link ~src ~dst ~seq =
  Engine.schedule_at t.sim ~label:Label.unknown
    ~at:(Engine.now t.sim +. retransmit_timeout)
    (fun () ->
      match Int_tbl.find link.unacked seq with
      | exception Not_found -> ()
      | u ->
          u.u_tries <- u.u_tries + 1;
          if u.u_tries > max_retries then
            failwith
              (Printf.sprintf
                 "Fabric: P%d->P%d frame #%d undeliverable after %d \
                  retransmits (%s)"
                 src dst seq max_retries (t.describe u.u_msg));
          t.retransmits <- t.retransmits + 1;
          (let probe = Engine.probe t.sim in
           if probe.on then
             Dsm_obs.Probe.emit probe
               (Retransmit { time = Engine.now t.sim; src; dst; seq }));
          transmit t ~src ~dst ~words:u.u_words ~wire_words:u.u_wire
            ~clock_words:u.u_clock ~fifo:true ~label:Label.unknown
            (fun () -> received t link ~src ~dst ~seq u.u_msg);
          arm_retransmit t link ~src ~dst ~seq)

let post t ~src ~dst ~words ~wire_words ~clock_words ~fifo ~label msg =
  if words < 0 then invalid_arg "Fabric.post: negative size";
  if src < 0 || src >= nodes t then invalid_arg "Fabric.post: src";
  if dst < 0 || dst >= nodes t then invalid_arg "Fabric.post: dst";
  (* [words] is the nominal size the latency model prices; [wire_words]
     is what the chosen encoding actually put on the wire, of which
     [clock_words] were clock piggyback. Keeping the two apart is what
     lets the wire encoding vary without perturbing a single delivery
     time. *)
  if wire_words < 0 then invalid_arg "Fabric.post: negative wire size";
  if clock_words < 0 then invalid_arg "Fabric.post: negative clock size";
  if not t.reliable then
    transmit t ~src ~dst ~words ~wire_words ~clock_words ~fifo ~label
      (fun () -> (arrived t ~src ~dst) ~src msg)
  else begin
    let link = edge_link t ~src ~dst in
    let seq = link.next_seq in
    link.next_seq <- seq + 1;
    Int_tbl.replace link.unacked seq
      {
        u_msg = msg;
        u_words = words;
        u_wire = wire_words;
        u_clock = clock_words;
        u_tries = 0;
      };
    (* resequencing restores send order whatever the wire does, so
       every frame rides the FIFO floor *)
    transmit t ~src ~dst ~words ~wire_words ~clock_words ~fifo:true ~label
      (fun () -> received t link ~src ~dst ~seq msg);
    arm_retransmit t link ~src ~dst ~seq
  end

let messages_dropped t = t.dropped

let messages_duplicated t = t.duplicated

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
  Int_tbl.clear t.last_delivery;
  Int_tbl.clear t.links;
  t.messages <- 0;
  t.words <- 0;
  t.wire_words <- 0;
  t.clock_words <- 0;
  t.dropped <- 0;
  t.duplicated <- 0;
  t.retransmits <- 0
