(* Row-drift check for the committed bench files: compares the row names
   of two bench JSON files (the committed one and a fresh emission) and
   fails listing every name only one of them has.

   Usage: bench_rows COMMITTED.json EMITTED.json *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Every ["name": "..."] value, in file order. The bench writer emits one
   row object per line with the name first and no escaped quotes. *)
let row_names path =
  let s = read_file path in
  let key = "\"name\": \"" in
  let rec scan acc from =
    match String.index_from_opt s from '"' with
    | None -> List.rev acc
    | Some i ->
        let k = String.length key in
        if i + k <= String.length s && String.sub s i k = key then
          let j = String.index_from s (i + k) '"' in
          scan (String.sub s (i + k) (j - i - k) :: acc) (j + 1)
        else scan acc (i + 1)
  in
  scan [] 0

let () =
  match Sys.argv with
  | [| _; committed; emitted |] ->
      let a = List.sort_uniq compare (row_names committed)
      and b = List.sort_uniq compare (row_names emitted) in
      let only xs ys = List.filter (fun x -> not (List.mem x ys)) xs in
      let stale = only a b and missing = only b a in
      List.iter
        (Printf.eprintf "%s: row %S is no longer emitted\n" committed)
        stale;
      List.iter
        (Printf.eprintf "%s: emitted row %S is not committed\n" committed)
        missing;
      if stale <> [] || missing <> [] then begin
        Printf.eprintf "regenerate %s with bench/main.exe (see the Makefile)\n"
          committed;
        exit 1
      end
  | _ ->
      prerr_endline "usage: bench_rows COMMITTED.json EMITTED.json";
      exit 2
