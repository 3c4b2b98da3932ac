type t = {
  events : Event.t array;
  preds : int list array;
  clocks : int array array; (* HB vector clock per event *)
  own_seq : int array; (* event's own component within its process *)
  prog_pred : int array; (* program-order predecessor id, or -1 *)
}

let build ~n ~events ~preds =
  if n < 1 then invalid_arg "Trace.build: n must be positive";
  let m = Array.length events in
  if Array.length preds <> m then
    invalid_arg "Trace.build: preds length differs from events";
  Array.iteri
    (fun i e ->
      if Event.id e <> i then invalid_arg "Trace.build: ids must be dense";
      let p = Event.pid e in
      if p < 0 || p >= n then invalid_arg "Trace.build: pid out of range";
      List.iter
        (fun j ->
          if j < 0 || j >= i then
            invalid_arg "Trace.build: edge does not point backwards")
        preds.(i))
    events;
  let clocks = Array.make m [||] in
  let own_seq = Array.make m 0 in
  let prog_pred = Array.make m (-1) in
  let seq = Array.make n 0 in
  let last_of_pid = Array.make n (-1) in
  for i = 0 to m - 1 do
    let p = Event.pid events.(i) in
    let vc = Array.make n 0 in
    let absorb j =
      let cj = clocks.(j) in
      for k = 0 to n - 1 do
        if cj.(k) > vc.(k) then vc.(k) <- cj.(k)
      done
    in
    if last_of_pid.(p) >= 0 then absorb last_of_pid.(p);
    prog_pred.(i) <- last_of_pid.(p);
    List.iter absorb preds.(i);
    seq.(p) <- seq.(p) + 1;
    vc.(p) <- seq.(p);
    clocks.(i) <- vc;
    own_seq.(i) <- seq.(p);
    last_of_pid.(p) <- i
  done;
  { events; preds; clocks; own_seq; prog_pred }

let length t = Array.length t.events

let events t = t.events

let accesses t =
  Array.to_list t.events |> List.filter_map Event.access_opt

let happens_before t a b =
  if a < 0 || a >= length t || b < 0 || b >= length t then
    invalid_arg "Trace.happens_before";
  a <> b && t.clocks.(b).(Event.pid t.events.(a)) >= t.own_seq.(a)

type race_pair = { first : Event.access; second : Event.access }

(* The pair cannot race iff [first] is in the causal past of [second]'s
   program predecessor — i.e. of [second]'s clock before it absorbs its
   own incoming reads-from edges. Observation is not synchronization. *)
let race_ordered t ~first ~second =
  if first >= second then invalid_arg "Trace.race_ordered: first >= second";
  let q = t.prog_pred.(second) in
  q >= 0 && happens_before t first q

let races t =
  (* Bucket accesses by the node owning the target, then test pairs within
     a bucket: conflict is cheap, the HB check is O(1). *)
  let buckets : (int, Event.access list ref) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (a : Event.access) ->
      let key = a.target.base.pid in
      match Hashtbl.find_opt buckets key with
      | Some l -> l := a :: !l
      | None -> Hashtbl.add buckets key (ref [ a ]))
    (accesses t);
  let out = ref [] in
  Hashtbl.iter
    (fun _ l ->
      let arr = Array.of_list (List.rev !l) in
      let m = Array.length arr in
      for i = 0 to m - 1 do
        for j = i + 1 to m - 1 do
          let a = arr.(i) and b = arr.(j) in
          if Event.conflict a b then begin
            let first, second = if a.id < b.id then (a, b) else (b, a) in
            if not (race_ordered t ~first:first.id ~second:second.id) then
              out := { first; second } :: !out
          end
        done
      done)
    buckets;
  List.sort
    (fun x y ->
      match compare x.second.id y.second.id with
      | 0 -> compare x.first.id y.first.id
      | c -> c)
    !out

let racy_access_ids t =
  let set = Hashtbl.create 16 in
  List.iter
    (fun { first; second } ->
      Hashtbl.replace set first.id ();
      Hashtbl.replace set second.id ())
    (races t);
  set

let to_dot t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "digraph trace {\n  rankdir=TB;\n";
  Array.iter
    (fun e ->
      let shape =
        match e with
        | Event.Access { kind = Event.Write; _ } -> "box"
        | Event.Access _ -> "ellipse"
        | Event.Sync _ -> "diamond"
      in
      Buffer.add_string buf
        (Printf.sprintf "  e%d [shape=%s,label=\"%s\"];\n" (Event.id e) shape
           (Format.asprintf "%a" Event.pp e)))
    t.events;
  let last_of_pid = Hashtbl.create 8 in
  Array.iter
    (fun e ->
      let i = Event.id e and p = Event.pid e in
      (match Hashtbl.find_opt last_of_pid p with
      | Some j ->
          Buffer.add_string buf (Printf.sprintf "  e%d -> e%d;\n" j i)
      | None -> ());
      Hashtbl.replace last_of_pid p i;
      List.iter
        (fun j ->
          Buffer.add_string buf
            (Printf.sprintf "  e%d -> e%d [style=dashed];\n" j i))
        t.preds.(i))
    t.events;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
