open Dsm_sim
open Dsm_memory

module Probe = Dsm_obs.Probe

(* The machine's clock piggyback state of one (src, dst) edge, kept on
   the fabric's edge record. The sender owns [cache], the last clock
   shipped on the edge (the next delta's base: [no_cache] until the
   edge's first clock frame, then a zero clock of the source's
   dimension, which sizes like no base, advanced in place), [sent], the
   next frame's seq, the clock source it last priced against
   ([source], 0 before the first frame) and, from the last frame, the
   sender clock's generation ([gen], -1 before the first frame from
   this source) and the priced result ([sized]). The receiver
   owns [expect], one past the seq of the last frame the edge delivered
   (-1 before the first); each frame carries its edge's record, so
   delivery finds it without a lookup. *)
type pb_edge = {
  mutable cache : Dsm_clocks.Vector_clock.t;
  mutable sent : int;
  mutable gen : int;
  mutable source : int;
  mutable sized : int;
  mutable expect : int;
}

(* What travels on the fabric: the protocol message, its edge's
   piggyback state and, when a clock source is installed and the message
   carries a clock, its piggyback's immediate header
   ({!Dsm_clocks.Codec.header}) — otherwise [no_pb]. The piggyback itself
   is priced, not built: its length goes to the fabric's accounting. *)
type frame = { pb : int; edge : pb_edge; msg : Message.t }

let no_pb = -1

let no_cache = Dsm_clocks.Vector_clock.create ~n:1

let new_edge () =
  { cache = no_cache; sent = 0; gen = -1; source = 0; sized = 0; expect = -1 }

type protocol_bug = Skip_get_dst_lock | Skip_rmw_write_mark

type t = {
  sim : Engine.t;
  fabric : (frame, pb_edge) Dsm_net.Fabric.t;
  bugs : protocol_bug list;
  model : Model.t;
  mh : Model.hooks;
      (* the model's hook record, unpacked once at construction so the
         per-message paths read plain booleans *)
  nodes : Node_memory.t array;
  mutable next_op : int;
  (* operation id -> the initiator's ivar awaiting the reply: the words
     of a get, accumulate or control reply ([[||]] for a put's ack), or
     the one value of an atomic reply or lock grant. Two tables by
     payload type, so a reply fills its ivar with what it carries and
     no message outlives its delivery. *)
  pending_words : int array Ivar.t Int_tbl.t;
  pending_values : int Ivar.t Int_tbl.t;
  (* [token * n + node] -> the lock id held on that node for a remote
     owner ([remote_lock_key]) *)
  remote_locks : Lock_table.lock_id Int_tbl.t;
  control_handlers :
    (string, node:int -> origin:int -> int array -> int array option)
    Hashtbl.t;
  (* clock piggyback wiring: when a detector installs a clock source,
     every clock-carrying message gets a piggyback whose codec is chosen
     and whose size is priced per message — accounting-only; the latency
     model keeps pricing the nominal [Message.wire_words]. *)
  mutable clock_src : Dsm_clocks.Vector_clock.t array option;
      (* each pid's live clock, read when it sends *)
  mutable source : int;  (* {!set_clock_source} calls so far *)
  pb_mode : Dsm_clocks.Codec.piggyback_mode;
      (* deltas need per-edge in-order, exactly-once delivery of the
         piggybacks: [Delta] on a fault-free fabric (the FIFO floor
         gives order, nothing drops or duplicates) or under the
         fabric's reliable transport (which resequences and dedups);
         otherwise the self-contained [Sparse] form *)
  pb_tally : Dsm_clocks.Codec.tally;
}

type proc = { m : t; p : int }

(* ---------- construction ---------- *)

(* The messages a clock piggyback rides on: data towards the target
   (puts), data back to the initiator (replies), and lock grants (a
   release publishes the holder's history to the next holder). Requests
   that carry no data ship no clock; their nominal [extra_words]
   allowance stays a timing-model artifact. *)
let carries_clock = function
  | Message.Put _ | Message.Put_batch _ | Message.Get_reply _
  | Message.Atomic_reply _ | Message.Acc_reply _ | Message.Lock_granted _ ->
      true
  | Message.Put_ack _ | Message.Get _ | Message.Atomic _
  | Message.Accumulate _ | Message.Lock_request _ | Message.Unlock _
  | Message.Control _ | Message.Control_reply _ ->
      false

(* A lock held on [node] for a remote owner is keyed by its grant token
   and the node, packed into one int. *)
let remote_lock_key m ~node ~token = (token * Array.length m.nodes) + node

(* [apply]'s answer to a request that wants no reply (an unacked put). *)
let no_reply = Message.Put_ack { op = -1 }

let rec handle m ~node ~src msg =
  (let probe = Engine.probe m.sim in
   if probe.on land Probe.msg <> 0 then
     Probe.emit probe (Msg_delivered { src; dst = node; msg }));
  match msg with
  | Message.Put { op; origin; offset; data; locked; want_ack; _ }
    when (not m.mh.Model.atomic_puts) && Array.length data > 1 ->
      (* Non-atomic puts (Relaxed / Eventual): the span applies word by
         word, each word its own locked step with a scheduling point in
         between, so a concurrent get over the span can observe a torn
         write — exactly the window the paper's NIC-atomic model closes. *)
      non_atomic_put m ~node ~origin ~op ~locked ~want_ack
        [| (offset, data) |]
  | Message.Put_batch { op; origin; parts; locked; want_ack; _ }
    when not m.mh.Model.atomic_puts ->
      (* Non-atomic batches lose the union-span lock too: parts land word
         by word, interleaving with whatever else the schedule delivers. *)
      non_atomic_put m ~node ~origin ~op ~locked ~want_ack parts
  | Message.Put { origin; offset; data; locked; _ } ->
      lock_step m ~node ~origin ~locked ~offset ~len:(Array.length data) msg
  | Message.Put_batch { origin; parts; locked; _ } ->
      (* the whole batch lands under one lock spanning its parts — a
         single acquisition instead of one per put — and answers with a
         single ack *)
      let lo, _ = parts.(0) in
      let hi_off, hi_data = parts.(Array.length parts - 1) in
      lock_step m ~node ~origin ~locked ~offset:lo
        ~len:(hi_off + Array.length hi_data - lo)
        msg
  | Message.Get { origin; offset; len; locked; _ } ->
      lock_step m ~node ~origin ~locked ~offset ~len msg
  | Message.Atomic { op; origin; offset; kind; _ }
    when List.mem Skip_rmw_write_mark m.bugs ->
      (* Planted §5.2 bug: the read half runs under the region lock but
         the write half is applied only after releasing it, as a delay-0
         event that ties with concurrent deliveries. A put or another RMW
         can land inside the window, so the value written is stale — the
         lost update [Coherence]'s RMW oracle must catch. *)
      let locks = Node_memory.locks m.nodes.(node) in
      let public = Node_memory.segment m.nodes.(node) Addr.Public in
      Lock_table.acquire locks ~offset ~len:1 (fun id ->
          let old_value = Segment.read public ~offset in
          Lock_table.release locks id;
          Engine.schedule m.sim ~delay:0. ~label:(Label.v ~node ~origin)
            (fun () ->
              write_atomic m ~node ~origin ~public ~offset kind old_value;
              transmit m ~src:node ~dst:origin
                (Message.Atomic_reply { op; old_value })))
  | Message.Atomic { origin; offset; _ } ->
      lock_step m ~node ~origin ~locked:true ~offset ~len:1 msg
  | Message.Accumulate { origin; offset; data; _ } ->
      (* The generalized one-sided RMW: the whole span is read, combined
         element-wise and written back under a single region lock hold,
         so it is atomic against puts, gets and other RMWs over any part
         of the span. *)
      lock_step m ~node ~origin ~locked:true ~offset ~len:(Array.length data)
        msg
  | Message.Lock_request { op; origin; offset; len } ->
      Lock_table.acquire (Node_memory.locks m.nodes.(node)) ~offset ~len
        (fun id ->
          Int_tbl.replace m.remote_locks (remote_lock_key m ~node ~token:op) id;
          transmit m ~src:node ~dst:origin
            (Message.Lock_granted { op; token = op }))
  | Message.Unlock { token } -> (
      let key = remote_lock_key m ~node ~token in
      match Int_tbl.find m.remote_locks key with
      | id ->
          Int_tbl.remove m.remote_locks key;
          Lock_table.release (Node_memory.locks m.nodes.(node)) id
      | exception Not_found ->
          failwith (Printf.sprintf "NIC P%d: unknown unlock token" node))
  | Message.Control { op; origin; tag; words; want_reply } -> (
      match Hashtbl.find_opt m.control_handlers tag with
      | None ->
          failwith
            (Printf.sprintf "NIC P%d: no control handler for tag %S" node tag)
      | Some f -> (
          match (f ~node ~origin words, want_reply) with
          | Some reply, _ ->
              transmit m ~src:node ~dst:origin
                (Message.Control_reply { op; words = reply })
          | None, false -> ()
          | None, true ->
              failwith
                (Printf.sprintf
                   "NIC P%d: control handler %S did not reply as requested"
                   node tag)))
  | Message.Put_ack { op } -> fill_reply m ~node m.pending_words op [||]
  | Message.Get_reply { op; data = w; _ }
  | Message.Acc_reply { op; old = w; _ }
  | Message.Control_reply { op; words = w } ->
      fill_reply m ~node m.pending_words op w
  | Message.Atomic_reply { op; old_value = v }
  | Message.Lock_granted { op; token = v } ->
      fill_reply m ~node m.pending_values op v

(* Step 2, lock: the target NIC applies [msg] under the range lock when
   [locked], releases it, then answers. Unlocked (the caller already
   holds the lock), it applies at once and builds no closure; locked, it
   builds only the lock-grant callback. *)
and lock_step m ~node ~origin ~locked ~offset ~len msg =
  if locked then begin
    let locks = Node_memory.locks m.nodes.(node) in
    Lock_table.acquire locks ~offset ~len (fun id ->
        let reply = apply m ~node msg in
        Lock_table.release locks id;
        respond m ~node ~origin reply)
  end
  else respond m ~node ~origin (apply m ~node msg)

and respond m ~node ~origin reply =
  if reply != no_reply then transmit m ~src:node ~dst:origin reply

(* Step 3, apply: the request's effect on [node]'s public memory, with
   its apply event ([Probe.rmw]'s for an RMW), at the instant the NIC
   commits it (inside the lock hold). Returns the reply to send, or
   [no_reply]. *)
and apply m ~node msg =
  let public = Node_memory.segment m.nodes.(node) Addr.Public in
  match msg with
  | Message.Put { op; origin; offset; data; want_ack; _ } ->
      write_part m ~node ~origin ~public ~offset data;
      if want_ack then Message.Put_ack { op } else no_reply
  | Message.Put_batch { op; origin; parts; want_ack; _ } ->
      (* each part is applied (and published) as its own write so the
         coherence shadow checker sees the same write-set an unbatched
         run produces *)
      for i = 0 to Array.length parts - 1 do
        let offset, data = parts.(i) in
        write_part m ~node ~origin ~public ~offset data
      done;
      if want_ack then Message.Put_ack { op } else no_reply
  | Message.Get { op; origin; offset; len; extra_words; _ } ->
      let data = Segment.read_block public ~offset ~len in
      (let probe = Engine.probe m.sim in
       if probe.on land Probe.apply <> 0 then
         Probe.emit probe (Read_served { node; offset; data; origin }));
      Message.Get_reply { op; data; extra_words }
  | Message.Atomic { op; origin; offset; kind; _ } ->
      let old_value = Segment.read public ~offset in
      write_atomic m ~node ~origin ~public ~offset kind old_value;
      Message.Atomic_reply { op; old_value }
  | Message.Accumulate { op; origin; offset; aop; data; extra_words } ->
      let len = Array.length data in
      let old = Segment.read_block public ~offset ~len in
      let result =
        Array.init len (fun i -> Message.apply_acc aop old.(i) data.(i))
      in
      Segment.write_block public ~offset result;
      (let probe = Engine.probe m.sim in
       if probe.on land Probe.rmw <> 0 then
         Probe.emit probe
           (Acc_applied { node; offset; aop; old; data; result; origin }));
      Message.Acc_reply { op; old; extra_words }
  | _ -> invalid_arg "Machine.apply: not a data or RMW request"

and write_part m ~node ~origin ~public ~offset data =
  Segment.write_block public ~offset data;
  let probe = Engine.probe m.sim in
  if probe.on land Probe.apply <> 0 then
    Probe.emit probe (Write_applied { node; offset; data; origin })

(* The write half of a single-word RMW whose read returned [old_value]. *)
and write_atomic m ~node ~origin ~public ~offset kind old_value =
  let new_value = Message.apply_atomic kind old_value in
  Segment.write public ~offset new_value;
  let probe = Engine.probe m.sim in
  if probe.on land Probe.rmw <> 0 then
    Probe.emit probe
      (Atomic_applied { node; offset; kind; old_value; new_value; origin })

(* Step 4, complete, at the initiator's NIC: the reply fills the ivar
   [complete] waits on. *)
and fill_reply : 'a. t -> node:int -> 'a Ivar.t Int_tbl.t -> int -> 'a -> unit
    =
 fun m ~node pending op v ->
  match Int_tbl.find pending op with
  | iv ->
      Int_tbl.remove pending op;
      (* The resumed initiator lives on this node (pid = node), so its
         continuation's footprint is the node's own state plus its own
         process — the (node, node) label. *)
      Ivar.fill ~label:(Label.v ~node ~origin:node) m.sim iv v
  | exception Not_found ->
      failwith (Printf.sprintf "NIC: reply for unknown op #%d" op)

(* Applies the parts' words in order, word [i] of part [p] at
   [(p, i)], each its own (locked) write, with a delay-0 scheduling point
   between consecutive words; acks after the last. *)
and non_atomic_put m ~node ~origin ~op ~locked ~want_ack parts =
  let locks = Node_memory.locks m.nodes.(node) in
  let public = Node_memory.segment m.nodes.(node) Addr.Public in
  (* The first word at or after [(p, i)], skipping empty parts. *)
  let rec next p i =
    if p = Array.length parts then None
    else if i < Array.length (snd parts.(p)) then Some (p, i)
    else next (p + 1) 0
  in
  let finish () =
    if want_ack then transmit m ~src:node ~dst:origin (Message.Put_ack { op })
  in
  let rec step p i =
    let offset, data = parts.(p) in
    let offset = offset + i in
    let write_word id =
      write_part m ~node ~origin ~public ~offset [| data.(i) |];
      if id != Lock_table.refused then Lock_table.release locks id;
      match next p (i + 1) with
      | None -> finish ()
      | Some (p, i) ->
          Engine.schedule m.sim ~delay:0. ~label:(Label.v ~node ~origin)
            (fun () -> step p i)
    in
    if locked then Lock_table.acquire locks ~offset ~len:1 write_word
    else write_word Lock_table.refused
  in
  match next 0 0 with None -> finish () | Some (p, i) -> step p i

and transmit m ~src ~dst msg =
  (let probe = Engine.probe m.sim in
   if probe.on land Probe.msg <> 0 then
     Probe.emit probe (Msg_sent { src; dst; msg }));
  (* Footprint of the delivery event: a request's handler mutates the
     destination node's state on behalf of the sending process (origin =
     src, since pid = node); a reply's handler only completes a pending
     operation of the destination's own process. *)
  let label =
    Label.v ~node:dst ~origin:(if Message.is_reply msg then dst else src)
  in
  let words = Message.wire_words msg in
  (* Eventual: put frames skip the fabric's FIFO floor, so two puts on
     the same edge can apply out of send order. Everything else (gets,
     replies, locks, acks) stays ordered; the reliable transport
     delivers in send order whatever this says. *)
  let fifo =
    not
      (m.mh.Model.put_reorder_granules
      &&
      match msg with
      | Message.Put _ | Message.Put_batch _ -> true
      | _ -> false)
  in
  (* True-bytes accounting: with a clock source installed, the nominal
     [extra_words] allowance is replaced by the priced piggyback (or by
     nothing on messages that carry no clock). Timing still prices
     [words], so the wire encoding cannot perturb the schedule. *)
  let edge = Dsm_net.Fabric.edge m.fabric ~src ~dst in
  let e = Dsm_net.Fabric.state edge in
  match m.clock_src with
  | None ->
      Dsm_net.Fabric.post m.fabric edge ~words ~wire_words:words
        ~clock_words:0 ~fifo ~label
        { pb = no_pb; edge = e; msg }
  | Some clocks when carries_clock msg ->
      let v = clocks.(src) in
      if e.source <> m.source then begin
        (* first frame since this source was installed: the edge's
           generation speaks of another source's clock *)
        if e.cache == no_cache then
          e.cache <-
            Dsm_clocks.Vector_clock.create ~n:(Dsm_clocks.Vector_clock.dim v);
        e.source <- m.source;
        e.gen <- -1
      end;
      let gen = Dsm_clocks.Vector_clock.generation v in
      (* Under [Delta] a clock that only its owner's ticks changed since
         the edge's last frame differs from the cache at most in its
         own component: [src], or 0 for a one-component clock. *)
      let sized =
        if gen = e.gen && m.pb_mode = Dsm_clocks.Codec.Delta then
          Dsm_clocks.Codec.size_piggyback_ticked ~tally:m.pb_tally
            ~cache:e.cache ~last:e.sized
            ~own:(if Dsm_clocks.Vector_clock.dim v = 1 then 0 else src)
            v
        else
          Dsm_clocks.Codec.size_piggyback_edge ~tally:m.pb_tally
            ~mode:m.pb_mode ~cache:e.cache v
      in
      e.gen <- gen;
      e.sized <- sized;
      let pb = Dsm_clocks.Codec.header ~seq:e.sent sized in
      e.sent <- e.sent + 1;
      let clock_words = Dsm_clocks.Codec.frame_words sized in
      Dsm_net.Fabric.post m.fabric edge ~words
        ~wire_words:(words - Message.extra_words msg + clock_words)
        ~clock_words ~fifo ~label { pb; edge = e; msg }
  | Some _ ->
      Dsm_net.Fabric.post m.fabric edge ~words
        ~wire_words:(words - Message.extra_words msg)
        ~clock_words:0 ~fifo ~label
        { pb = no_pb; edge = e; msg }

let create sim ~n ?(latency = Dsm_net.Latency.infiniband_like) ?private_words
    ?public_words ?faults ?(reliable = false) ?(protocol_bugs = [])
    ?(model = Model.default) () =
  if n < 1 then invalid_arg "Machine.create: need at least one node";
  let fabric =
    Dsm_net.Fabric.create sim ~n ~latency ?faults ~reliable
      ~describe:(fun fr -> Message.describe fr.msg)
      ~state:new_edge ()
  in
  let m =
    {
      sim;
      fabric;
      bugs = protocol_bugs;
      model;
      mh = Model.hooks model;
      nodes =
        Array.init n (fun pid ->
            Node_memory.create ~pid ?private_words ?public_words ());
      next_op = 0;
      pending_words = Int_tbl.create 64;
      pending_values = Int_tbl.create 64;
      remote_locks = Int_tbl.create 64;
      control_handlers = Hashtbl.create 8;
      clock_src = None;
      source = 0;
      pb_mode =
        (* put-lane reordering (Eventual) defeats per-edge in-order
           delivery just like reorder faults do; the reliable transport
           resequences either way *)
        (if
           (Dsm_net.Fault.is_none (Dsm_net.Fabric.faults fabric)
           && not (Model.hooks model).Model.put_reorder_granules)
           || reliable
         then Dsm_clocks.Codec.Delta
         else Dsm_clocks.Codec.Sparse);
      pb_tally = Dsm_clocks.Codec.tally ();
    }
  in
  for node = 0 to n - 1 do
    Dsm_net.Fabric.register fabric ~node (fun ~src fr ->
        (* the header check is the backstop against a delta that meets
           the wrong base: it raises, and the run surfaces as crashed *)
        if fr.pb <> no_pb then
          fr.edge.expect <-
            Dsm_clocks.Codec.check_header ~expect_seq:fr.edge.expect fr.pb;
        handle m ~node ~src fr.msg)
  done;
  m

(* Arena reuse: back to the [create] state without reallocating. Fabric
   handlers stay registered (create installs them once); everything the
   previous run accumulated — node memory, pending operations, transport
   state, control handlers — is dropped; the probe bus and its sinks
   live on the engine and stay. Must run after
   [Engine.reset] on the owning engine so [Fabric.reset] re-splits its
   generator from the same root-stream position as construction. *)
let reset m =
  Dsm_net.Fabric.reset m.fabric;
  Array.iter Node_memory.reset m.nodes;
  m.next_op <- 0;
  Int_tbl.clear m.pending_words;
  Int_tbl.clear m.pending_values;
  Int_tbl.clear m.remote_locks;
  Hashtbl.reset m.control_handlers;
  (* piggyback state is per-run: the next population re-installs its
     clock source (Detector.create) and [Fabric.reset] drops every
     edge, so a reset arena is bit-identical to a fresh machine *)
  m.clock_src <- None;
  m.pb_tally.dense <- 0;
  m.pb_tally.sparse <- 0;
  m.pb_tally.delta <- 0

let sim m = m.sim

let model m = m.model

let n m = Array.length m.nodes

let node m pid =
  if pid < 0 || pid >= n m then invalid_arg "Machine.node: pid out of range";
  m.nodes.(pid)

let fabric_messages m = Dsm_net.Fabric.messages_sent m.fabric

let fabric_words m = Dsm_net.Fabric.words_sent m.fabric

let wire_words_sent m = Dsm_net.Fabric.wire_words_sent m.fabric

let clock_words_sent m = Dsm_net.Fabric.clock_words_sent m.fabric

let set_clock_source m clocks =
  m.clock_src <- Some clocks;
  (* generations of the old source's clocks say nothing of the new *)
  m.source <- m.source + 1

let clock_encodings m =
  let t = m.pb_tally in
  (t.Dsm_clocks.Codec.dense, t.sparse, t.delta)

let transport_retransmits m = Dsm_net.Fabric.retransmits m.fabric

let pending_ops m =
  Int_tbl.length m.pending_words + Int_tbl.length m.pending_values

let locks_quiescent m =
  Array.for_all
    (fun nm ->
      let locks = Node_memory.locks nm in
      Lock_table.held_count locks = 0 && Lock_table.queued_count locks = 0)
    m.nodes

let lock_grants_chained m =
  Array.fold_left
    (fun acc nm -> acc + Lock_table.chained_grants (Node_memory.locks nm))
    0 m.nodes

(* ---------- processes ---------- *)

let proc m ~pid =
  if pid < 0 || pid >= n m then invalid_arg "Machine.proc: pid out of range";
  { m; p = pid }

(* An unnamed process is named ["P<pid>"] by the engine, from its label,
   and only if a failure message needs the name. *)
let spawn m ~pid ?name body =
  let p = proc m ~pid in
  Engine.spawn m.sim ?name ~label:(Label.v ~node:pid ~origin:pid) (fun () ->
      body p)

let spawn_all m body =
  for pid = 0 to n m - 1 do
    spawn m ~pid body
  done

let pid p = p.p

let compute p dt =
  Engine.sleep ~label:(Label.v ~node:p.p ~origin:p.p) p.m.sim dt

let run m = Engine.run m.sim

(* ---------- allocation ---------- *)

let alloc_public m ~pid ?name ~len () =
  Node_memory.alloc (node m pid) ~space:Addr.Public ?name ~len ()

let alloc_private m ~pid ?name ~len () =
  Node_memory.alloc (node m pid) ~space:Addr.Private ?name ~len ()

(* ---------- op helpers ---------- *)

let fresh_op m =
  let op = m.next_op in
  m.next_op <- op + 1;
  op

let check_same_len (src : Addr.region) (dst : Addr.region) what =
  if src.len <> dst.len then
    invalid_arg (Printf.sprintf "Machine.%s: region lengths differ" what)

let check_local p (r : Addr.region) what =
  if r.base.pid <> p.p then
    invalid_arg
      (Printf.sprintf "Machine.%s: %s is not local to P%d" what
         (Addr.to_string r) p.p)

let check_public (r : Addr.region) what =
  if not (Addr.is_public r) then
    invalid_arg
      (Printf.sprintf "Machine.%s: %s is not public" what (Addr.to_string r))

let read_local p (r : Addr.region) = Node_memory.read p.m.nodes.(p.p) r

(* Acquire a lock on the caller's own node, suspending until granted.
   An uncontended lock is granted on the spot: awaiting it would only
   resume the process synchronously inside the effect handler, with no
   event scheduled either way, so the same code runs in the same order
   without capturing a continuation. Only a contended lock suspends. *)
let await_local_lock p ~offset ~len =
  let locks = Node_memory.locks p.m.nodes.(p.p) in
  let id = Lock_table.try_acquire locks ~offset ~len in
  if id != Lock_table.refused then id
  else
    Engine.await p.m.sim (fun resume ->
        Lock_table.acquire locks ~offset ~len resume)

(* [Batch_flush] probe point: a batch coalesced [parts] operations into
   one request. *)
let batch_flush p ~node ~kind ~parts ~words =
  let probe = Engine.probe p.m.sim in
  if probe.on land Probe.op <> 0 then
    Probe.emit probe
      (Batch_flush
         { pid = p.p; node; kind; parts; words })

(* Step 1, issue: [Op_begin] ([Batch_flush] too for a coalesced put) and
   the request [msg], its id [op] from [fresh_op], on the wire to
   [target]. Control requests pass kind [""]: they fire no op probe. *)
let issue p ~op ~kind ~target msg =
  let probe = Engine.probe p.m.sim in
  if probe.on land Probe.op <> 0 && kind <> "" then
    Probe.emit probe
      (Op_begin { pid = p.p; op; kind; target });
  (match msg with
  | Message.Put_batch { parts; _ } ->
      batch_flush p ~node:target ~kind ~parts:(Array.length parts)
        ~words:
          (Array.fold_left (fun acc (_, d) -> acc + Array.length d) 0 parts)
  | _ -> ());
  transmit p.m ~src:p.p ~dst:target msg

let op_end p ~op ~kind =
  let probe = Engine.probe p.m.sim in
  if probe.on land Probe.op <> 0 && kind <> "" then
    Probe.emit probe
      (Op_end { pid = p.p; op; kind })

(* Step 4, complete, on the initiator: waits for the reply to [op] that
   [fill_reply] files in [pending] at the initiator's NIC, then fires
   [Op_end]. The ivar is registered after [issue] sent the request, but
   before any delivery can run. *)
let complete p ~op ~kind pending =
  let iv = Ivar.create () in
  Int_tbl.replace pending op iv;
  let v = Ivar.read p.m.sim iv in
  op_end p ~op ~kind;
  v

(* ---------- data operations ---------- *)

let put p ~src ~dst ?(extra_words = 0) ?(ack = true) ?(locked = true) () =
  check_local p src "put";
  check_public dst "put";
  check_same_len src dst "put";
  let data = read_local p src in
  let op = fresh_op p.m in
  issue p ~op ~kind:"put" ~target:dst.base.pid
    (Message.Put
       {
         op;
         origin = p.p;
         offset = dst.base.offset;
         data;
         extra_words;
         locked;
         want_ack = ack;
       });
  if ack then ignore (complete p ~op ~kind:"put" p.m.pending_words)
  else op_end p ~op ~kind:"put"

let send_get p ~(src : Addr.region) ~extra_words ~locked =
  check_public src "get";
  let op = fresh_op p.m in
  issue p ~op ~kind:"get" ~target:src.base.pid
    (Message.Get
       {
         op;
         origin = p.p;
         offset = src.base.offset;
         len = src.len;
         extra_words;
         locked;
       });
  complete p ~op ~kind:"get" p.m.pending_words

(* Figure 3: a public destination stays locked for the whole round trip,
   so a concurrent put to it is delayed until the get finishes.
   [Skip_get_dst_lock] plants the protocol bug the explorer's acceptance
   test hunts for: eliding this lock lets a concurrent put land inside
   the get window — which is also the {e legal} behavior of models
   without get-delays-put serialization (Relaxed and weaker).
   [Lock_table.refused] stands for "no lock". *)
let dst_lock p (dst : Addr.region) =
  if
    Addr.is_public dst
    && p.m.mh.Model.get_delays_put
    && not (List.mem Skip_get_dst_lock p.m.bugs)
  then await_local_lock p ~offset:dst.base.offset ~len:dst.len
  else Lock_table.refused

(* The destination locks of a batch's pairs, taken in order; only the
   granted ones are kept. *)
let rec dst_locks p = function
  | [] -> []
  | (_, dst) :: rest ->
      let id = dst_lock p dst in
      if id == Lock_table.refused then dst_locks p rest
      else id :: dst_locks p rest

(* A get's data lands in the getter's own memory. Landing in public
   memory is a write like any the NIC applies, published as one. *)
let land_data p (dst : Addr.region) data =
  let nm = p.m.nodes.(p.p) in
  if Addr.is_public dst then
    write_part p.m ~node:p.p ~origin:p.p
      ~public:(Node_memory.segment nm Addr.Public)
      ~offset:dst.base.offset data
  else Node_memory.write nm dst data

let get p ~src ~(dst : Addr.region) ?(extra_words = 0) ?(locked = true) () =
  check_local p dst "get";
  check_same_len src dst "get";
  let held = if locked then dst_lock p dst else Lock_table.refused in
  let data = send_get p ~src ~extra_words ~locked in
  land_data p dst data;
  if held != Lock_table.refused then
    Lock_table.release (Node_memory.locks p.m.nodes.(p.p)) held

(* ---------- batched data operations ----------

   A batch is one run: its pairs' remote sides (a put's destinations, a
   get's sources) sit on one node in ascending address order. The run
   coalesces into one fabric message: one header, one lock acquisition
   over the union span, one reply. Singleton batches fall back to the
   plain per-op path so the [Batch_flush] probe fires only when
   coalescing actually happened. *)

type dir = Put | Get

(* Checks one pair of a batch against the remote side of the pair
   before it, which ended at [prev_end] on node [target], and returns
   where this pair's remote side ends. Put destinations ascend without
   overlapping; get sources are contiguous. *)
let check_part p dir ~target prev_end
    ((src : Addr.region), (dst : Addr.region)) =
  match dir with
  | Put ->
      check_local p src "put_batch";
      check_public dst "put_batch";
      check_same_len src dst "put_batch";
      if dst.base.pid <> target then
        invalid_arg "Machine.put_batch: parts target different nodes";
      if dst.base.offset < prev_end then
        invalid_arg
          "Machine.put_batch: parts must be in ascending, \
           non-overlapping address order";
      dst.base.offset + dst.len
  | Get ->
      check_public src "get_batch";
      check_local p dst "get_batch";
      check_same_len src dst "get_batch";
      if src.base.pid <> target then
        invalid_arg "Machine.get_batch: parts target different nodes";
      if src.base.offset <> prev_end then
        invalid_arg
          "Machine.get_batch: source parts must be contiguous and ascending";
      src.base.offset + src.len

let rec check_parts p dir ~target prev_end = function
  | [] -> prev_end
  | pair :: rest ->
      check_parts p dir ~target (check_part p dir ~target prev_end pair) rest

(* Where the batch's remote span ends; raises [Invalid_argument] unless
   [pairs] is one run. *)
let check_run p dir (pairs : (Addr.region * Addr.region) list) =
  match pairs with
  | [] ->
      invalid_arg
        (match dir with
        | Put -> "Machine.put_batch: empty batch"
        | Get -> "Machine.get_batch: empty batch")
  | (src0, dst0) :: _ ->
      let first = match dir with Put -> dst0 | Get -> src0 in
      check_parts p dir ~target:first.base.pid first.base.offset pairs

(* A run is the pairs [check_batch] accepted, uncopied: the verbs take
   it instead of re-walking the preconditions. *)
type run = (Addr.region * Addr.region) list

let check_batch p dir ~pairs : run =
  ignore (check_run p dir pairs : int);
  pairs

(* The words a get run's contiguous sources span. *)
let rec source_words = function
  | [] -> 0
  | ((src : Addr.region), _) :: rest -> src.len + source_words rest

(* Fills [parts] from slot [i] on with each pair's destination offset
   and source data. *)
let rec read_put_parts p parts i = function
  | [] -> ()
  | (src, (dst : Addr.region)) :: rest ->
      parts.(i) <- (dst.base.offset, read_local p src);
      read_put_parts p parts (i + 1) rest

let put_batch p (pairs : run) ?(extra_words = 0) ?(locked = true) () =
  match pairs with
  | [ (src, dst) ] -> put p ~src ~dst ~extra_words ~locked ()
  | [] -> () (* rejected by the check *)
  | (_, (dst0 : Addr.region)) :: _ ->
      let target = dst0.base.pid in
      let parts = Array.make (List.length pairs) (0, [||]) in
      read_put_parts p parts 0 pairs;
      let op = fresh_op p.m in
      issue p ~op ~kind:"put" ~target
        (Message.Put_batch
           { op; origin = p.p; parts; extra_words; locked; want_ack = true });
      ignore (complete p ~op ~kind:"put" p.m.pending_words)

(* Gets need no new message: contiguous sources collapse into a single
   [Get] over the union span, scattered into the destinations locally. *)
let get_batch p (pairs : run) ?(extra_words = 0) ?(locked = true) () =
  match pairs with
  | [ (src, dst) ] -> get p ~src ~dst ~extra_words ~locked ()
  | [] -> () (* rejected by the check *)
  | ((src0 : Addr.region), _) :: _ ->
      let target = src0.base.pid and lo = src0.base.offset in
      let len = source_words pairs in
      (* Figure 3 for every public destination *)
      let held = if locked then dst_locks p pairs else [] in
      batch_flush p ~node:target ~kind:"get" ~parts:(List.length pairs)
        ~words:len;
      let span = Addr.region ~pid:target ~space:Addr.Public ~offset:lo ~len in
      let data = send_get p ~src:span ~extra_words ~locked in
      List.iter
        (fun ((src : Addr.region), dst) ->
          land_data p dst (Array.sub data (src.base.offset - lo) src.len))
        pairs;
      let tbl = Node_memory.locks p.m.nodes.(p.p) in
      List.iter (fun id -> Lock_table.release tbl id) held

let atomic p ~(target : Addr.global) ~extra_words kind =
  if target.space <> Addr.Public then
    invalid_arg "Machine.atomic: target is not public";
  let op = fresh_op p.m in
  issue p ~op ~kind:"atomic" ~target:target.pid
    (Message.Atomic
       { op; origin = p.p; offset = target.offset; kind; extra_words });
  complete p ~op ~kind:"atomic" p.m.pending_values

let fetch_add p ~target ?(extra_words = 0) ~delta () =
  atomic p ~target ~extra_words (Message.Fetch_add delta)

let cas p ~target ?(extra_words = 0) ~expected ~desired () =
  let old =
    atomic p ~target ~extra_words
      (Message.Compare_and_swap { expected; desired })
  in
  old = expected

(* One-sided accumulate over a whole span: local operands from [src],
   applied element-wise to the remote [dst] under one region lock at the
   target. Returns the values the span held before the update. *)
let accumulate p ~(src : Addr.region) ~(dst : Addr.region)
    ?(aop = Message.Add) ?(extra_words = 0) () =
  check_local p src "accumulate";
  check_public dst "accumulate";
  check_same_len src dst "accumulate";
  let data = read_local p src in
  if Array.length data = 0 then
    invalid_arg "Machine.accumulate: empty region";
  let op = fresh_op p.m in
  issue p ~op ~kind:"atomic" ~target:dst.base.pid
    (Message.Accumulate
       { op; origin = p.p; offset = dst.base.offset; aop; data; extra_words });
  complete p ~op ~kind:"atomic" p.m.pending_words

(* ---------- lock service ---------- *)

type token =
  | No_lock
  | Local of { id : Lock_table.lock_id; offset : int; len : int }
  | Remote of { node : int; tok : int; offset : int; len : int }

let lock_probe p ~acquired ~node ~offset ~len =
  let probe = Engine.probe p.m.sim in
  if probe.on land Probe.lock <> 0 then
    Probe.emit probe
      (if acquired then Lock_acquired { pid = p.p; node; offset; len }
       else Lock_released { pid = p.p; node; offset; len })

let lock p (r : Addr.region) =
  match (r.base.space, r.base.pid = p.p) with
  | Addr.Private, true -> No_lock
  | Addr.Private, false ->
      invalid_arg "Machine.lock: cannot lock another process's private memory"
  | Addr.Public, true ->
      let id = await_local_lock p ~offset:r.base.offset ~len:r.len in
      lock_probe p ~acquired:true ~node:p.p ~offset:r.base.offset ~len:r.len;
      Local { id; offset = r.base.offset; len = r.len }
  | Addr.Public, false ->
      let op = fresh_op p.m in
      issue p ~op ~kind:"lock" ~target:r.base.pid
        (Message.Lock_request
           { op; origin = p.p; offset = r.base.offset; len = r.len });
      let tok = complete p ~op ~kind:"lock" p.m.pending_values in
      lock_probe p ~acquired:true ~node:r.base.pid ~offset:r.base.offset
        ~len:r.len;
      Remote { node = r.base.pid; tok; offset = r.base.offset; len = r.len }

let unlock p = function
  | No_lock -> ()
  | Local { id; offset; len } ->
      Lock_table.release (Node_memory.locks p.m.nodes.(p.p)) id;
      lock_probe p ~acquired:false ~node:p.p ~offset ~len
  | Remote { node; tok; offset; len } ->
      transmit p.m ~src:p.p ~dst:node (Message.Unlock { token = tok });
      lock_probe p ~acquired:false ~node ~offset ~len

(* ---------- control plane ---------- *)

let set_control_handler m ~tag f =
  if Hashtbl.mem m.control_handlers tag then
    invalid_arg
      (Printf.sprintf "Machine.set_control_handler: tag %S is taken" tag);
  Hashtbl.replace m.control_handlers tag f

let control p ~target ~tag ~words =
  let op = fresh_op p.m in
  issue p ~op ~kind:"" ~target
    (Message.Control { op; origin = p.p; tag; words; want_reply = true });
  complete p ~op ~kind:"" p.m.pending_words

let control_async p ~target ~tag ~words =
  let op = fresh_op p.m in
  issue p ~op ~kind:"" ~target
    (Message.Control { op; origin = p.p; tag; words; want_reply = false })

let control_notify m ~src ~dst ~tag ~words =
  let op = fresh_op m in
  transmit m ~src ~dst
    (Message.Control { op; origin = src; tag; words; want_reply = false })
