(* Row-drift check for the committed bench files: compares the row names
   of two bench JSON files (the committed one and a fresh emission) and
   fails listing every name only one of them has.

   Usage: bench_rows COMMITTED.json EMITTED.json *)

module J = Dsm_obs.Trace_json

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Every [results[].name], in file order. A file that does not parse, or
   a row without a string name, fails the check. *)
let row_names path =
  let fail msg =
    Printf.eprintf "%s: %s\n" path msg;
    exit 1
  in
  match J.parse (read_file path) with
  | exception J.Parse_error (pos, msg) ->
      fail (Printf.sprintf "malformed JSON at byte %d: %s" pos msg)
  | doc -> (
      match J.member "results" doc with
      | Some (J.Arr rows) ->
          List.map
            (fun row ->
              match J.str_member "name" row with
              | Some name -> name
              | None -> fail "a results row has no string \"name\"")
            rows
      | _ -> fail "no \"results\" array")

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
