(* Hand-rolled lexer + recursive-descent parser. The grammar is LL(1)
   except for statement heads starting with an identifier, where one
   token of lookahead after the identifier decides between private
   assignment, store and fetch-add. *)

type token =
  | INT of int
  | IDENT of string
  | KW of string (* shared if then else end for do done barrier skip compute to *)
  | MINE
  | PROCS
  | ASSIGN (* := *)
  | ADD_ASSIGN (* +>= *)
  | LPAREN
  | RPAREN
  | LBRACKET
  | RBRACKET
  | SEMI
  | EQ (* = , used only in for headers *)
  | OP of Ast.binop
  | EOF

type lexed = { tok : token; line : int }

exception Parse_error of string * int

let error ~line fmt =
  Printf.ksprintf (fun s -> raise (Parse_error (s, line))) fmt

let keywords =
  [
    "shared"; "if"; "then"; "else"; "end"; "for"; "while"; "do"; "done";
    "barrier"; "skip"; "compute"; "to";
  ]

let lex input =
  let n = String.length input in
  let out = ref [] in
  let line = ref 1 in
  let emit tok = out := { tok; line = !line } :: !out in
  let i = ref 0 in
  let peek k = if !i + k < n then Some input.[!i + k] else None in
  while !i < n do
    let c = input.[!i] in
    (match c with
    | '\n' ->
        incr line;
        incr i
    | ' ' | '\t' | '\r' -> incr i
    | '#' ->
        while !i < n && input.[!i] <> '\n' do
          incr i
        done
    | '0' .. '9' ->
        let start = !i in
        while !i < n && match input.[!i] with '0' .. '9' -> true | _ -> false do
          incr i
        done;
        emit (INT (int_of_string (String.sub input start (!i - start))))
    | 'a' .. 'z' | 'A' .. 'Z' | '_' ->
        let start = !i in
        while
          !i < n
          &&
          match input.[!i] with
          | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true
          | _ -> false
        do
          incr i
        done;
        let word = String.sub input start (!i - start) in
        if word = "MINE" then emit MINE
        else if word = "PROCS" then emit PROCS
        else if List.mem word keywords then emit (KW word)
        else emit (IDENT word)
    | ':' when peek 1 = Some '=' ->
        emit ASSIGN;
        i := !i + 2
    | '+' when peek 1 = Some '>' && peek 2 = Some '=' ->
        emit ADD_ASSIGN;
        i := !i + 3
    | '=' when peek 1 = Some '=' ->
        emit (OP Ast.Eq);
        i := !i + 2
    | '=' ->
        emit EQ;
        incr i
    | '+' ->
        emit (OP Ast.Add);
        incr i
    | '-' ->
        emit (OP Ast.Sub);
        incr i
    | '*' ->
        emit (OP Ast.Mul);
        incr i
    | '/' ->
        emit (OP Ast.Div);
        incr i
    | '%' ->
        emit (OP Ast.Mod);
        incr i
    | '<' ->
        emit (OP Ast.Lt);
        incr i
    | '(' ->
        emit LPAREN;
        incr i
    | ')' ->
        emit RPAREN;
        incr i
    | '[' ->
        emit LBRACKET;
        incr i
    | ']' ->
        emit RBRACKET;
        incr i
    | ';' ->
        emit SEMI;
        incr i
    | c -> error ~line:!line "unexpected character %C" c);
    (* the numeric/identifier branches advance [i] themselves *)
    ()
  done;
  emit EOF;
  List.rev !out

(* A tiny stream over the lexed tokens. *)
type stream = { mutable items : lexed list }

let current s =
  match s.items with [] -> assert false | l :: _ -> l

let advance s =
  match s.items with [] -> assert false | _ :: rest -> s.items <- rest

let expect s tok what =
  let l = current s in
  if l.tok = tok then advance s
  else error ~line:l.line "expected %s" what

(* Precedence climbing: expr = cmp; cmp = sum, optionally compared once
   with == or <; sum = prod separated by + and -; prod = atom separated
   by the multiplicative operators. *)
let rec parse_expr s = parse_cmp s

and parse_cmp s =
  let left = parse_sum s in
  match (current s).tok with
  | OP ((Ast.Eq | Ast.Lt) as op) ->
      advance s;
      let right = parse_sum s in
      Ast.Binop (op, left, right)
  | _ -> left

and parse_sum s =
  let rec loop acc =
    match (current s).tok with
    | OP ((Ast.Add | Ast.Sub) as op) ->
        advance s;
        let right = parse_prod s in
        loop (Ast.Binop (op, acc, right))
    | _ -> acc
  in
  loop (parse_prod s)

and parse_prod s =
  let rec loop acc =
    match (current s).tok with
    | OP ((Ast.Mul | Ast.Div | Ast.Mod) as op) ->
        advance s;
        let right = parse_atom s in
        loop (Ast.Binop (op, acc, right))
    | _ -> acc
  in
  loop (parse_atom s)

and parse_atom s =
  let l = current s in
  match l.tok with
  | INT i ->
      advance s;
      Ast.Int i
  | MINE ->
      advance s;
      Ast.Mine
  | PROCS ->
      advance s;
      Ast.Procs
  | IDENT name -> (
      advance s;
      match (current s).tok with
      | LBRACKET ->
          advance s;
          let idx = parse_expr s in
          expect s RBRACKET "']'";
          Ast.Load (name, idx)
      | _ -> Ast.Var name)
  | LPAREN ->
      advance s;
      let e = parse_expr s in
      expect s RPAREN "')'";
      e
  | _ -> error ~line:l.line "expected an expression"

(* One statement (no trailing separator). *)
let rec parse_stmt s =
  let l = current s in
  match l.tok with
  | KW "skip" ->
      advance s;
      Ast.Skip
  | KW "barrier" ->
      advance s;
      Ast.Barrier
  | KW "compute" ->
      advance s;
      Ast.Compute (parse_expr s)
  | KW "if" ->
      advance s;
      let cond = parse_expr s in
      expect s (KW "then") "'then'";
      let then_ = parse_seq s in
      let else_ =
        match (current s).tok with
        | KW "else" ->
            advance s;
            parse_seq s
        | _ -> Ast.Skip
      in
      expect s (KW "end") "'end'";
      Ast.If (cond, then_, else_)
  | KW "while" ->
      advance s;
      let cond = parse_expr s in
      expect s (KW "do") "'do'";
      let body = parse_seq s in
      expect s (KW "done") "'done'";
      Ast.While (cond, body)
  | KW "for" ->
      advance s;
      let var =
        match (current s).tok with
        | IDENT v ->
            advance s;
            v
        | _ -> error ~line:(current s).line "expected a loop variable"
      in
      expect s EQ "'='";
      let lo = parse_expr s in
      expect s (KW "to") "'to'";
      let hi = parse_expr s in
      expect s (KW "do") "'do'";
      let body = parse_seq s in
      expect s (KW "done") "'done'";
      Ast.For (var, lo, hi, body)
  | IDENT name -> (
      advance s;
      match (current s).tok with
      | LBRACKET -> (
          advance s;
          let idx = parse_expr s in
          expect s RBRACKET "']'";
          match (current s).tok with
          | ASSIGN ->
              advance s;
              Ast.Store (name, idx, parse_expr s)
          | ADD_ASSIGN ->
              advance s;
              Ast.Fetch_add (name, idx, parse_expr s)
          | _ -> error ~line:(current s).line "expected ':=' or '+>=' after element")
      | ASSIGN ->
          advance s;
          Ast.Let (name, parse_expr s)
      | _ -> error ~line:(current s).line "expected ':=' after %S" name)
  | _ -> error ~line:l.line "expected a statement"

(* stmt (';' stmt)* — a trailing ';' before a closer is tolerated. *)
and parse_seq s =
  let closes tok =
    tok = EOF || tok = KW "end" || tok = KW "else" || tok = KW "done"
  in
  let first = parse_stmt s in
  let rec loop acc =
    match (current s).tok with
    | SEMI ->
        advance s;
        if closes (current s).tok then acc else loop (parse_stmt s :: acc)
    | _ -> acc
  in
  match loop [ first ] with
  | [ single ] -> single
  | many -> Ast.Seq (List.rev many)

let parse_decls s =
  let decls = ref [] in
  let rec loop () =
    match (current s).tok with
    | KW "shared" -> (
        advance s;
        match (current s).tok with
        | IDENT name -> (
            advance s;
            expect s LBRACKET "'['";
            match (current s).tok with
            | INT length ->
                advance s;
                expect s RBRACKET "']'";
                decls := { Ast.name; length } :: !decls;
                loop ()
            | _ -> error ~line:(current s).line "expected an array length")
        | _ -> error ~line:(current s).line "expected an array name")
    | _ -> ()
  in
  loop ();
  List.rev !decls

let parse input =
  match
    let s = { items = lex input } in
    let shared = parse_decls s in
    let body =
      if (current s).tok = EOF then Ast.Skip else parse_seq s
    in
    (match (current s).tok with
    | EOF -> ()
    | _ -> error ~line:(current s).line "trailing input after the program");
    { Ast.shared; body }
  with
  | prog -> (
      match Ast.validate prog with
      | Ok () -> Ok prog
      | Error msg -> Error msg)
  | exception Parse_error (msg, line) ->
      Error (Printf.sprintf "line %d: %s" line msg)
