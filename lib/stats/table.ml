type t = { headers : string list; mutable rows : string list list }

let create ~headers = { headers; rows = [] }

let add_row t row =
  if List.length row <> List.length t.headers then
    invalid_arg "Table.add_row: width differs from headers";
  t.rows <- row :: t.rows

let render t =
  let rows = List.rev t.rows in
  let all = t.headers :: rows in
  let widths =
    List.fold_left
      (fun acc row -> List.map2 (fun w s -> max w (String.length s)) acc row)
      (List.map (fun _ -> 0) t.headers)
      all
  in
  let buf = Buffer.create 256 in
  let emit row =
    let first = ref true in
    List.iter2
      (fun s w ->
        if !first then first := false else Buffer.add_string buf "  ";
        Buffer.add_string buf s;
        Buffer.add_string buf (String.make (w - String.length s) ' '))
      row widths;
    Buffer.add_char buf '\n'
  in
  emit t.headers;
  List.iteri
    (fun i w ->
      if i > 0 then Buffer.add_string buf "  ";
      Buffer.add_string buf (String.make w '-'))
    widths;
  Buffer.add_char buf '\n';
  List.iter emit rows;
  Buffer.contents buf

let print t = print_string (render t)
