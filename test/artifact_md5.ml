(* Byte pins for CLI artifacts: checks each FILE against its recorded
   MD5 and fails listing every file whose bytes changed.

   Usage: artifact_md5 FILE MD5 [FILE MD5 ...] *)

let () =
  let rec pairs = function
    | file :: md5 :: rest -> (file, md5) :: pairs rest
    | [] -> []
    | [ _ ] ->
        prerr_endline "usage: artifact_md5 FILE MD5 [FILE MD5 ...]";
        exit 2
  in
  let changed =
    List.filter
      (fun (file, want) ->
        let got = Digest.to_hex (Digest.file file) in
        if got <> want then
          Printf.eprintf "%s: md5 %s, pinned %s\n" file got want;
        got <> want)
      (pairs (List.tl (Array.to_list Sys.argv)))
  in
  if changed <> [] then exit 1
