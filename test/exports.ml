(* Interface guard: lists every [val] declared in lib/**/*.mli that no
   file outside its own module uses, one per line, tagged [dead] (no
   other file uses it) or [test-only] (only files under test/ do).
   It also lists every optional parameter [?label] of a [val] that no
   file outside test/ and outside the declaring module passes, tagged
   [dead-option] (no such file passes it) or [test-only-option] (only
   files under test/ do): a knob that only tests turn. A label counts
   as passed only where [~label] or [?label] is an argument of an
   application of the value itself, not of a function nested in it.
   Files are read from lib/, bin/, bench/, examples/ and test/ under
   ROOT; comments, string and character literals are skipped. A use
   counts only where the module is named: [M.name], [Q.name] for an
   alias [module Q = ... M] or a module [Q] whose file includes [M], or
   a bare [name] in a file that opens or includes [M] (or an alias of
   it), or opens it locally as [M.( ... )]. A local open counts for the
   whole file, and a type that
   shares a value's name keeps the value alive: confirm a removal with
   [dune build], not with this list alone.

   Usage: exports.exe ROOT. Exits 1 when it lists anything, 0 when every
   value and option has a user outside test/. *)

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

let is_module_name s = match s.[0] with 'A' .. 'Z' -> true | _ -> false

(* The last component of the module path [A . B . M] that starts
   [toks], unless the path is applied to a functor argument. *)
let rec path_end = function
  | m :: "." :: (next :: _ as rest) when is_module_name m && is_module_name next
    ->
      path_end rest
  | m :: "(" :: _ when is_module_name m -> None
  | m :: _ when is_module_name m -> Some m
  | _ -> None

(* Tokens that end an application when they stand outside its
   brackets: infix operators, separators and keywords. *)
let ends_application = function
  | ";" | "," | "|" | "&" | "=" | "<" | ">" | "@" | "^" | "+" | "-" | "*"
  | "/" | "$" | "%" | "in" | "let" | "then" | "else" | "with" | "and" | "do"
  | "done" | "to" | "downto" | "match" | "if" | "fun" | "function" | "when"
  | "val" | "type" | "module" | "open" | "include" | "or" | "mod" | "land"
  | "lor" | "lxor" | "lsl" | "lsr" | "asr" | "try" | "external" | "exception"
  | "struct" | "sig" | "method" | "object" ->
      true
  | _ -> false

(* The labels [~label] and [?label] of the application whose arguments
   start [toks]: those outside any bracket, up to the token that ends
   the application. *)
let applied toks =
  let rec go depth acc = function
    | [] -> acc
    | ("(" | "[" | "{" | "begin") :: rest -> go (depth + 1) acc rest
    | (")" | "]" | "}" | "end") :: rest ->
        if depth = 0 then acc else go (depth - 1) acc rest
    | ("~" | "?") :: label :: rest when depth = 0 && is_value_name label ->
        go depth (label :: acc) rest
    | tok :: _ when depth = 0 && ends_application tok -> acc
    | _ :: rest -> go depth acc rest
  in
  go 0 [] toks

(* What a source names through modules: [qualified] maps [(M, name)]
   for each [M.name] (an alias resolved to the module it names) to the
   labels passed where it is applied, [opened] holds every module the
   file opens, includes or opens locally, [included] the modules it
   includes (and so re-exports), and [bare] maps every unqualified
   value name to the labels passed where it is applied. *)
type uses = {
  qualified : (string * string, (string, unit) Hashtbl.t) Hashtbl.t;
  opened : (string, unit) Hashtbl.t;
  mutable included : string list;
  bare : (string, (string, unit) Hashtbl.t) Hashtbl.t;
}

let uses toks =
  let alias = Hashtbl.create 8 in
  let rec aliases = function
    | "module" :: q :: "=" :: rest when is_module_name q ->
        Option.iter (Hashtbl.replace alias q) (path_end rest);
        aliases rest
    | _ :: rest -> aliases rest
    | [] -> ()
  in
  aliases toks;
  (* [module Q = M] chains, cut off where an alias names itself *)
  let rec resolve fuel q =
    match Hashtbl.find_opt alias q with
    | Some m when m <> q && fuel > 0 -> resolve (fuel - 1) m
    | _ -> q
  in
  let resolve = resolve 8 in
  let u =
    {
      qualified = Hashtbl.create 64;
      opened = Hashtbl.create 8;
      included = [];
      bare = Hashtbl.create 256;
    }
  in
  (* Records a use of [key] in [tbl], with the labels of [args] unless
     the name is being defined rather than applied. *)
  let use tbl key ~define args =
    let labels =
      match Hashtbl.find_opt tbl key with
      | Some labels -> labels
      | None ->
          let labels = Hashtbl.create 4 in
          Hashtbl.replace tbl key labels;
          labels
    in
    if not define then
      List.iter (fun l -> Hashtbl.replace labels l ()) (applied args)
  in
  let rec go prev = function
    | [] -> ()
    | tok :: rest ->
        (match (tok, rest) with
        | ("open" | "include"), rest ->
            let rest = match rest with "!" :: r -> r | r -> r in
            Option.iter
              (fun m ->
                let m = resolve m in
                Hashtbl.replace u.opened m ();
                if tok = "include" then u.included <- m :: u.included)
              (path_end rest)
        | q, "." :: x :: args when is_module_name q ->
            if is_value_name x then
              use u.qualified (resolve q, x) ~define:false args
            else if x = "(" || x = "[" || x = "{" then
              Hashtbl.replace u.opened (resolve q) ()
        | x, args when is_value_name x && prev <> "." ->
            let define =
              match prev with
              | "let" | "and" | "rec" | "val" | "external" | "method" | "~"
              | "?" ->
                  true
              | _ -> false
            in
            use u.bare x ~define args
        | _ -> ());
        go tok rest
  in
  go "" toks;
  u

(* Whether [u] names [name] through any module in [ms], and, given
   [label], passes it where [name] is applied. *)
let names ?label u ~ms name =
  let passes tbl key =
    match (Hashtbl.find_opt tbl key, label) with
    | None, _ -> false
    | Some _, None -> true
    | Some labels, Some label -> Hashtbl.mem labels label
  in
  List.exists
    (fun m ->
      passes u.qualified (m, name)
      || (Hashtbl.mem u.opened m && passes u.bare name))
    ms

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
           (path, toks, uses toks))
  in
  let is_test path = String.starts_with ~prefix:"test/" path in
  let module_of path =
    String.capitalize_ascii (Filename.basename (Filename.remove_extension path))
  in
  (* [m] and every module whose file includes it *)
  let qualifiers m =
    m
    :: List.filter_map
         (fun (path, _, u) ->
           if List.mem m u.included then Some (module_of path) else None)
         files
  in
  (* [dead] when no file outside [stem] passes [counts], [test-only] when
     only files under test/ do; both tagged with [suffix]. *)
  let verdict ~stem ~suffix counts =
    let users =
      List.filter
        (fun ((path, _, _) as file) ->
          Filename.remove_extension path <> stem && counts file)
        files
    in
    if users = [] then Some ("dead" ^ suffix)
    else if List.for_all (fun (path, _, _) -> is_test path) users then
      Some ("test-only" ^ suffix)
    else None
  in
  let reported = ref false in
  let report line =
    reported := true;
    print_endline line
  in
  List.iter
    (fun (path, toks, _) ->
      if String.starts_with ~prefix:"lib/" path
         && Filename.extension path = ".mli"
      then
        let stem = Filename.remove_extension path in
        let modname = module_of path in
        List.iter
          (fun (inner, name, options) ->
            let ms = qualifiers (List.fold_left (fun _ m -> m) modname inner) in
            let uses_value (_, _, u) = names u ~ms name in
            let value = String.concat "." ((modname :: inner) @ [ name ]) in
            Option.iter
              (fun tag -> report (String.concat " " [ path; value; tag ]))
              (verdict ~stem ~suffix:"" uses_value);
            List.iter
              (fun label ->
                Option.iter
                  (fun tag ->
                    report (String.concat " " [ path; value; "?" ^ label; tag ]))
                  (verdict ~stem ~suffix:"-option" (fun (_, _, u) ->
                       names ~label u ~ms name)))
              options)
          (declared toks))
    files;
  if !reported then exit 1
