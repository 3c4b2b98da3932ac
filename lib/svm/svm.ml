open Dsm_memory
open Dsm_sim
module Machine = Dsm_rdma.Machine

type page_state = Invalid | Shared | Owned

(* One outstanding fault, queued at the manager. *)
type fault = { f_page : int; f_requestor : int; f_write : bool }

type t = {
  machine : Machine.t;
  n : int;
  page_words : int;
  num_pages : int;
  frames : Addr.region array array; (* frames.(node).(page) *)
  state : page_state array array; (* state.(node).(page) *)
  (* --- manager tables (conceptually on node 0) --- *)
  owner : int array;
  copyset : (int, unit) Hashtbl.t array; (* Shared holders, owner excluded *)
  queue : fault Queue.t array;
  busy : bool array;
  inv_pending : int array;
  (* --- per-process wait cells --- *)
  waiting : (int * int, unit Ivar.t) Hashtbl.t; (* (pid, page) *)
  mutable read_faults : int;
  mutable write_faults : int;
}

let fault_tag = "svm.fault"

let inv_tag = "svm.inv"

let invack_tag = "svm.invack"

let fetch_tag = "svm.fetch"

let page_tag = "svm.page"

let grant_tag = "svm.grant"

let done_tag = "svm.done"

let manager = 0

let frame_data t ~node ~page =
  Node_memory.read (Machine.node t.machine node) t.frames.(node).(page)

let frame_write t ~node ~page data =
  Node_memory.write (Machine.node t.machine node) t.frames.(node).(page) data

(* ---- manager side ---- *)

let rec start_next t page =
  match Queue.take_opt t.queue.(page) with
  | None -> t.busy.(page) <- false
  | Some f ->
      t.busy.(page) <- true;
      if f.f_write then begin
        (* Invalidate every Shared copy other than the requestor's. *)
        let targets =
          Hashtbl.fold
            (fun node () acc -> if node <> f.f_requestor then node :: acc else acc)
            t.copyset.(page) []
        in
        t.inv_pending.(page) <- List.length targets;
        if targets = [] then fetch_phase t f
        else
          List.iter
            (fun node ->
              Machine.control_notify t.machine ~src:manager ~dst:node
                ~tag:inv_tag
                ~words:[| page; f.f_requestor; 1 |])
            targets
      end
      else fetch_phase t f

and fetch_phase t f =
  let page = f.f_page in
  let owner = t.owner.(page) in
  if owner = f.f_requestor then
    (* A write fault by the owner itself (its copies were Shared with
       others): no data moves, just grant exclusivity. *)
    Machine.control_notify t.machine ~src:manager ~dst:f.f_requestor
      ~tag:grant_tag
      ~words:[| page |]
  else
    Machine.control_notify t.machine ~src:manager ~dst:owner ~tag:fetch_tag
      ~words:[| page; f.f_requestor; (if f.f_write then 1 else 0) |]

and finish t ~page ~requestor ~write =
  if write then begin
    (* Ownership migrates; all other copies are gone. *)
    (if t.owner.(page) <> requestor then begin
       t.state.(t.owner.(page)).(page) <- Invalid;
       t.owner.(page) <- requestor
     end);
    Hashtbl.reset t.copyset.(page)
  end
  else Hashtbl.replace t.copyset.(page) requestor ();
  start_next t page

(* ---- construction ---- *)

let create machine ?(page_words = 64) ~num_pages () =
  if page_words < 1 || num_pages < 1 then
    invalid_arg "Svm.create: degenerate geometry";
  let n = Machine.n machine in
  let t =
    {
      machine;
      n;
      page_words;
      num_pages;
      frames =
        Array.init n (fun node ->
            Array.init num_pages (fun page ->
                Machine.alloc_public machine ~pid:node
                  ~name:(Printf.sprintf "svm.frame%d" page)
                  ~len:page_words ()));
      state =
        Array.init n (fun node ->
            Array.init num_pages (fun page ->
                if page mod n = node then Owned else Invalid));
      owner = Array.init num_pages (fun page -> page mod n);
      copyset = Array.init num_pages (fun _ -> Hashtbl.create 4);
      queue = Array.init num_pages (fun _ -> Queue.create ());
      busy = Array.make num_pages false;
      inv_pending = Array.make num_pages 0;
      waiting = Hashtbl.create 16;
      read_faults = 0;
      write_faults = 0;
    }
  in
  let sim = Machine.sim machine in
  Machine.set_control_handler machine ~tag:fault_tag
    (fun ~node:_ ~origin:_ words ->
      let f =
        {
          f_page = words.(0);
          f_requestor = words.(1);
          f_write = words.(2) = 1;
        }
      in
      Queue.add f t.queue.(f.f_page);
      if not t.busy.(f.f_page) then start_next t f.f_page;
      None);
  Machine.set_control_handler machine ~tag:inv_tag (fun ~node ~origin:_ words ->
      let page = words.(0) in
      t.state.(node).(page) <- Invalid;
      Machine.control_notify t.machine ~src:node ~dst:manager ~tag:invack_tag
        ~words:[| page; words.(1); words.(2) |];
      None);
  Machine.set_control_handler machine ~tag:invack_tag
    (fun ~node:_ ~origin:_ words ->
      let page = words.(0) in
      t.inv_pending.(page) <- t.inv_pending.(page) - 1;
      if t.inv_pending.(page) = 0 then
        fetch_phase t
          { f_page = page; f_requestor = words.(1); f_write = words.(2) = 1 };
      None);
  Machine.set_control_handler machine ~tag:fetch_tag
    (fun ~node ~origin:_ words ->
      let page = words.(0) and requestor = words.(1) in
      let write = words.(2) = 1 in
      let data = frame_data t ~node ~page in
      t.state.(node).(page) <- (if write then Invalid else Shared);
      Machine.control_notify t.machine ~src:node ~dst:requestor ~tag:page_tag
        ~words:
          (Array.concat [ [| page; (if write then 1 else 0) |]; data ]);
      None);
  Machine.set_control_handler machine ~tag:page_tag
    (fun ~node ~origin:_ words ->
      let page = words.(0) and write = words.(1) = 1 in
      frame_write t ~node ~page (Array.sub words 2 t.page_words);
      t.state.(node).(page) <- (if write then Owned else Shared);
      Machine.control_notify t.machine ~src:node ~dst:manager ~tag:done_tag
        ~words:[| page; node; (if write then 1 else 0) |];
      (match Hashtbl.find_opt t.waiting (node, page) with
      | Some iv ->
          Hashtbl.remove t.waiting (node, page);
          Ivar.fill ~label:Label.unknown sim iv ()
      | None -> ());
      None);
  Machine.set_control_handler machine ~tag:grant_tag
    (fun ~node ~origin:_ words ->
      let page = words.(0) in
      t.state.(node).(page) <- Owned;
      Machine.control_notify t.machine ~src:node ~dst:manager ~tag:done_tag
        ~words:[| page; node; 1 |];
      (match Hashtbl.find_opt t.waiting (node, page) with
      | Some iv ->
          Hashtbl.remove t.waiting (node, page);
          Ivar.fill ~label:Label.unknown sim iv ()
      | None -> ());
      None);
  Machine.set_control_handler machine ~tag:done_tag
    (fun ~node:_ ~origin:_ words ->
      finish t ~page:words.(0) ~requestor:words.(1) ~write:(words.(2) = 1);
      None);
  t

let check_addr t addr =
  if addr < 0 || addr >= t.num_pages * t.page_words then
    invalid_arg "Svm: address out of range"

let fault t p ~page ~write =
  let pid = Machine.pid p in
  if write then t.write_faults <- t.write_faults + 1
  else t.read_faults <- t.read_faults + 1;
  let iv = Ivar.create () in
  Hashtbl.replace t.waiting (pid, page) iv;
  Machine.control_async p ~target:manager ~tag:fault_tag
    ~words:[| page; pid; (if write then 1 else 0) |];
  Ivar.read (Machine.sim t.machine) iv

let load t p ~addr =
  check_addr t addr;
  let pid = Machine.pid p in
  let page = addr / t.page_words in
  (match t.state.(pid).(page) with
  | Shared | Owned -> ()
  | Invalid -> fault t p ~page ~write:false);
  (frame_data t ~node:pid ~page).(addr mod t.page_words)

let store t p ~addr v =
  check_addr t addr;
  let pid = Machine.pid p in
  let page = addr / t.page_words in
  (* [Owned] means exclusive: a read fault by anyone downgrades the owner
     to [Shared], so the owner's fast path is safe. *)
  (match t.state.(pid).(page) with
  | Owned -> ()
  | Shared | Invalid -> fault t p ~page ~write:true);
  let words = frame_data t ~node:pid ~page in
  words.(addr mod t.page_words) <- v;
  frame_write t ~node:pid ~page words

let read_faults t = t.read_faults

let write_faults t = t.write_faults
