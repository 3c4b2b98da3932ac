(* Interface guard: lists every [val] declared in lib/**/*.mli that no
   file outside its own module names, one per line, tagged [dead] (no
   other file names it) or [test-only] (only files under test/ do).
   It also lists every optional parameter [?label] of a [val] that no
   file outside test/ and outside the declaring module passes (as
   [~label] or [?label]), tagged [dead-option] (no file passes it) or
   [test-only-option] (only files under test/ do): a knob that only
   tests turn.
   Files are read from lib/, bin/, bench/, examples/ and test/ under
   ROOT; comments, string and character literals are skipped and names
   are compared as whole identifiers. A name that another module also
   uses for something else therefore keeps an export alive, and a label
   passed to any function, or declared by another module's own
   function, keeps every [?label] of that name alive: confirm a removal
   with [dune build], not with this list alone.

   Usage: exports.exe ROOT *)

let is_ident_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true
  | _ -> false

(* The index of [sub] in [s] at or after [i], or [String.length s]. *)
let find_from s i sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then n else if String.sub s i m = sub then i else go (i + 1)
  in
  go i

(* The identifiers and one-character symbols of an OCaml source, in
   order, without comments and literals. *)
let tokens src =
  let n = String.length src in
  let toks = ref [] in
  let rec after_string i =
    if i >= n then n
    else
      match src.[i] with
      | '\\' -> after_string (i + 2)
      | '"' -> i + 1
      | _ -> after_string (i + 1)
  in
  let rec after_comment depth i =
    if depth = 0 || i >= n then i
    else if i + 1 < n && src.[i] = '(' && src.[i + 1] = '*' then
      after_comment (depth + 1) (i + 2)
    else if i + 1 < n && src.[i] = '*' && src.[i + 1] = ')' then
      after_comment (depth - 1) (i + 2)
    else if src.[i] = '"' then after_comment depth (after_string (i + 1))
    else after_comment depth (i + 1)
  in
  (* A [{id|...|id}] quoted string opening at [i], if any. *)
  let after_quoted i =
    let j = ref (i + 1) in
    while !j < n && (match src.[!j] with 'a' .. 'z' | '_' -> true | _ -> false)
    do
      incr j
    done;
    if !j < n && src.[!j] = '|' then
      let close = "|" ^ String.sub src (i + 1) (!j - i - 1) ^ "}" in
      Some (min n (find_from src (!j + 1) close + String.length close))
    else None
  in
  let rec go i =
    if i < n then
      match src.[i] with
      | '(' when i + 1 < n && src.[i + 1] = '*' -> go (after_comment 1 (i + 2))
      | '"' -> go (after_string (i + 1))
      | '{' when after_quoted i <> None -> go (Option.get (after_quoted i))
      | '\'' when i + 2 < n && src.[i + 1] = '\\' ->
          go (find_from src (i + 3) "'" + 1)
      | '\'' when i + 2 < n && src.[i + 2] = '\'' -> go (i + 3)
      | c when is_ident_char c && c <> '\'' ->
          let j = ref i in
          while !j < n && is_ident_char src.[!j] do
            incr j
          done;
          toks := String.sub src i (!j - i) :: !toks;
          go !j
      | ' ' | '\t' | '\n' | '\r' -> go (i + 1)
      | c ->
          toks := String.make 1 c :: !toks;
          go (i + 1)
  in
  go 0;
  List.rev !toks

let is_value_name s = match s.[0] with 'a' .. 'z' | '_' -> true | _ -> false

(* The optional parameters of the [val] whose type starts [toks]: each
   [?label:] up to the next item of the signature. *)
let rec options = function
  | [] | ("val" | "external" | "type" | "module" | "end" | "exception"
         | "include" | "open" | "class") :: _ ->
      []
  | "?" :: label :: ":" :: rest -> label :: options rest
  | _ :: rest -> options rest

(* [(path, name, options)] for every [val]/[external] of an interface,
   [path] naming the enclosing [module X : sig] signatures. *)
let declared toks =
  let rec go stack pending acc = function
    | [] -> List.rev acc
    | "module" :: ("type" | "rec") :: name :: rest | "module" :: name :: rest
      ->
        go stack (Some name) acc rest
    | ("sig" | "struct" | "object" | "begin") :: rest ->
        go (pending :: stack) None acc rest
    | "end" :: rest -> go (List.tl stack) None acc rest
    | ("val" | "external") :: name :: rest when is_value_name name ->
        let path = List.filter_map Fun.id (List.rev stack) in
        go stack pending ((path, name, options rest) :: acc) rest
    | _ :: rest -> go stack pending acc rest
  in
  go [] None [] toks

(* Every label a source passes or declares as [~label] or [?label]. *)
let passed toks =
  let labels = Hashtbl.create 64 in
  let rec go = function
    | ("~" | "?") :: label :: rest when is_value_name label ->
        Hashtbl.replace labels label ();
        go rest
    | _ :: rest -> go rest
    | [] -> ()
  in
  go toks;
  labels

(* The .ml/.mli files under [dir], relative to [root], sorted. *)
let rec sources root dir =
  Sys.readdir (Filename.concat root dir)
  |> Array.to_list |> List.sort compare
  |> List.concat_map (fun entry ->
         let path = Filename.concat dir entry in
         if entry.[0] = '_' || entry.[0] = '.' then []
         else if Sys.is_directory (Filename.concat root path) then
           sources root path
         else if List.mem (Filename.extension entry) [ ".ml"; ".mli" ] then
           [ path ]
         else [])

let () =
  let root = if Array.length Sys.argv > 1 then Sys.argv.(1) else "." in
  let files =
    List.concat_map
      (fun d ->
        if Sys.file_exists (Filename.concat root d) then sources root d else [])
      [ "lib"; "bin"; "bench"; "examples"; "test" ]
    |> List.map (fun path ->
           let toks =
             In_channel.with_open_bin (Filename.concat root path)
               In_channel.input_all
             |> tokens
           in
           let names = Hashtbl.create 256 in
           List.iter (fun w -> Hashtbl.replace names w ()) toks;
           (path, toks, names, passed toks))
  in
  let is_test path = String.starts_with ~prefix:"test/" path in
  (* [dead] when no file outside [stem] has [name] in the table [of_file]
     picks, [test-only] when only files under test/ do; both tagged with
     [suffix]. *)
  let verdict ~stem ~suffix of_file name =
    let users =
      List.filter
        (fun ((path, _, _, _) as file) ->
          Filename.remove_extension path <> stem
          && Hashtbl.mem (of_file file) name)
        files
    in
    if users = [] then Some ("dead" ^ suffix)
    else if List.for_all (fun (path, _, _, _) -> is_test path) users then
      Some ("test-only" ^ suffix)
    else None
  in
  let names (_, _, names, _) = names and labels (_, _, _, labels) = labels in
  List.iter
    (fun (path, toks, _, _) ->
      if String.starts_with ~prefix:"lib/" path
         && Filename.extension path = ".mli"
      then
        let stem = Filename.remove_extension path in
        let modname = String.capitalize_ascii (Filename.basename stem) in
        List.iter
          (fun (inner, name, options) ->
            let value = String.concat "." ((modname :: inner) @ [ name ]) in
            Option.iter
              (Printf.printf "%s %s %s\n" path value)
              (verdict ~stem ~suffix:"" names name);
            List.iter
              (fun label ->
                Option.iter
                  (Printf.printf "%s %s ?%s %s\n" path value label)
                  (verdict ~stem ~suffix:"-option" labels label))
              options)
          (declared toks))
    files
