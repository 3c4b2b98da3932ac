open Dsm_sim

(* The FIFO delivery floor of one (src, dst) edge: the latest arrival
   scheduled for in-order traffic on it. A float-only record, so the
   floor is updated in place without boxing. *)
type floor = { mutable last : float }

type 'msg t = {
  sim : Engine.t;
  topo : Topology.t;
  model : Latency.t;
  fifo : bool;
  faults : Fault.t;
  rng : Prng.t;
  handlers : (src:int -> 'msg -> unit) option array;
  last_delivery : floor Int_tbl.t;
      (* keyed by [src * n + dst]: only edges that carry in-order
         traffic cost memory *)
  mutable messages : int;
  mutable words : int;
  mutable wire_words : int;
  mutable clock_words : int;
  mutable dropped : int;
  mutable duplicated : int;
}

let loopback_delay = 0.05 (* us: memcpy through the local NIC *)

let create sim ~topology ~latency ?(fifo = true) ?(faults = Fault.none) () =
  let topology = Topology.validate topology in
  let n = Topology.nodes topology in
  {
    sim;
    topo = topology;
    model = latency;
    fifo;
    faults;
    rng = Prng.split (Engine.rng sim);
    handlers = Array.make n None;
    last_delivery = Int_tbl.create 64;
    messages = 0;
    words = 0;
    wire_words = 0;
    clock_words = 0;
    dropped = 0;
    duplicated = 0;
  }

let nodes t = Array.length t.handlers

let topology t = t.topo

let faults t = t.faults

let register t ~node f =
  if node < 0 || node >= nodes t then invalid_arg "Fabric.register: node";
  match t.handlers.(node) with
  | Some _ -> invalid_arg "Fabric.register: handler already registered"
  | None -> t.handlers.(node) <- Some f

let deliver t ~src ~dst msg () =
  match t.handlers.(dst) with
  | None -> failwith (Printf.sprintf "Fabric: node %d has no handler" dst)
  | Some f ->
      let probe = Engine.probe t.sim in
      if probe.on then
        Dsm_obs.Probe.emit probe
          (Net_deliver { time = Engine.now t.sim; src; dst });
      f ~src msg

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

(* The arrival of an in-order frame on a FIFO fabric never precedes an
   earlier send on the same (src, dst) pair. Reordered frames skip both
   the floor and the floor update: they overtake and are overtaken. *)
let floored t ~src ~dst ~in_order arrival =
  if t.fifo && in_order then begin
    let floor = edge_floor t ~src ~dst in
    let a = if arrival <= floor.last then floor.last +. 1e-9 else arrival in
    floor.last <- a;
    a
  end
  else arrival

let post t ~src ~dst ~words ~wire_words ~clock_words ~fifo ~label msg =
  if words < 0 then invalid_arg "Fabric.send: negative size";
  if src < 0 || src >= nodes t then invalid_arg "Fabric.send: src";
  if dst < 0 || dst >= nodes t then invalid_arg "Fabric.send: dst";
  (* [words] is the nominal size the latency model prices; [wire_words]
     is what the chosen encoding actually put on the wire, of which
     [clock_words] were clock piggyback. Keeping the two apart is what
     lets the wire encoding vary without perturbing a single delivery
     time. *)
  if wire_words < 0 then invalid_arg "Fabric.send: negative wire size";
  if clock_words < 0 then invalid_arg "Fabric.send: negative clock size";
  t.messages <- t.messages + 1;
  t.words <- t.words + words;
  t.wire_words <- t.wire_words + wire_words;
  t.clock_words <- t.clock_words + clock_words;
  let lf = Fault.link t.faults ~src ~dst in
  let now = Engine.now t.sim in
  let arrival =
    if src = dst then now +. loopback_delay
    else begin
      let hops = Topology.hops t.topo ~src ~dst in
      let d = Latency.delay t.model t.rng ~words in
      now +. (d *. float_of_int (max 1 hops))
    end
  in
  let arrival =
    if lf.Fault.jitter > 0. then
      arrival +. Prng.exponential t.rng ~mean:lf.Fault.jitter
    else arrival
  in
  let probe = Engine.probe t.sim in
  if probe.on then
    Dsm_obs.Probe.emit probe
      (Net_send { time = now; src; dst; words; wire_words; clock_words; arrival });
  if lf.Fault.drop > 0. && Prng.bernoulli t.rng ~p:lf.Fault.drop then begin
    t.dropped <- t.dropped + 1;
    if probe.on then
      Dsm_obs.Probe.emit probe (Net_drop { time = now; src; dst })
  end
  else begin
    let reorder =
      lf.Fault.reorder > 0. && Prng.bernoulli t.rng ~p:lf.Fault.reorder
    in
    if reorder && probe.on then
      Dsm_obs.Probe.emit probe (Net_reorder { time = now; src; dst });
    let arrival =
      if reorder then arrival +. Prng.float t.rng lf.Fault.reorder_window
      else arrival
    in
    (* A caller can opt a frame out of FIFO ordering (weak memory-model
       backends reorder put lanes this way); it still never overtakes
       the floor update of ordered traffic it was sent after. *)
    let in_order = (not reorder) && fifo in
    let arrive () = deliver t ~src ~dst msg () in
    Engine.schedule_at t.sim ~label
      ~at:(floored t ~src ~dst ~in_order arrival)
      arrive;
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

let send t ~src ~dst ~words ?wire_words ?(clock_words = 0) ?(fifo = true)
    ?(label = Label.unknown) msg =
  let wire_words = match wire_words with Some w -> w | None -> words in
  post t ~src ~dst ~words ~wire_words ~clock_words ~fifo ~label msg

let messages_dropped t = t.dropped

let messages_duplicated t = t.duplicated

let messages_sent t = t.messages

let words_sent t = t.words

let wire_words_sent t = t.wire_words

let clock_words_sent t = t.clock_words

(* Arena reuse: restore the [create] state while keeping handlers
   registered. Must run after [Engine.reset] so that re-splitting the
   fabric generator consumes the same draw of the engine's root stream
   as [create] did — making a reset fabric bit-identical to a fresh
   one. *)
let reset t =
  Prng.resplit (Engine.rng t.sim) ~into:t.rng;
  Int_tbl.clear t.last_delivery;
  t.messages <- 0;
  t.words <- 0;
  t.wire_words <- 0;
  t.clock_words <- 0;
  t.dropped <- 0;
  t.duplicated <- 0
