type arrow = {
  send_time : float;
  recv_time : float;
  src : int;
  dst : int;
  label : string;
}

type mark = { time : float; pid : int; text : string }

type cell = { c_time : float; c_pid : int; c_text : string; c_seq : int }

let lane_width = 18

let render ~n ~arrows ~marks () =
  if n < 1 then invalid_arg "Spacetime.render: n must be positive";
  let check_pid p =
    if p < 0 || p >= n then invalid_arg "Spacetime.render: pid out of range"
  in
  let seq = ref 0 in
  let next_seq () =
    incr seq;
    !seq
  in
  let cells = ref [] in
  let add time pid text =
    check_pid pid;
    cells := { c_time = time; c_pid = pid; c_text = text; c_seq = next_seq () }
      :: !cells
  in
  List.iter
    (fun a ->
      if a.src = a.dst then
        add a.send_time a.src (Printf.sprintf "%s (self)" a.label)
      else begin
        add a.send_time a.src
          (Printf.sprintf "%s -->P%d" a.label a.dst);
        add a.recv_time a.dst
          (Printf.sprintf "P%d-->%s" a.src a.label)
      end)
    arrows;
  List.iter (fun m -> add m.time m.pid m.text) marks;
  let rows =
    List.sort
      (fun a b ->
        match compare a.c_time b.c_time with
        | 0 -> compare a.c_seq b.c_seq
        | c -> c)
      !cells
  in
  let buf = Buffer.create 1024 in
  let pad s w =
    let len = String.length s in
    if len >= w then String.sub s 0 w else s ^ String.make (w - len) ' '
  in
  (* Header: lane titles. *)
  Buffer.add_string buf (pad "time" 10);
  for p = 0 to n - 1 do
    Buffer.add_string buf (pad (Printf.sprintf "P%d" p) lane_width)
  done;
  Buffer.add_char buf '\n';
  Buffer.add_string buf (pad "" 10);
  for _ = 0 to n - 1 do
    Buffer.add_string buf (pad "|" lane_width)
  done;
  Buffer.add_char buf '\n';
  List.iter
    (fun c ->
      Buffer.add_string buf (pad (Printf.sprintf "%8.2f" c.c_time) 10);
      for p = 0 to n - 1 do
        if p = c.c_pid then Buffer.add_string buf (pad c.c_text lane_width)
        else Buffer.add_string buf (pad "|" lane_width)
      done;
      Buffer.add_char buf '\n')
    rows;
  Buffer.contents buf
