let lower ~instrument (prog : Ast.program) =
  match Ast.validate prog with
  | Error _ as e -> e
  | Ok () ->
      let tag = if instrument then Ir.Checked else Ir.Raw in
      let rec expr : Ast.expr -> Ir.expr = function
        | Ast.Int i -> Ir.Int i
        | Ast.Var v -> Ir.Var v
        | Ast.Mine -> Ir.Mine
        | Ast.Procs -> Ir.Procs
        | Ast.Load (name, idx) -> Ir.Load (tag, name, expr idx)
        | Ast.Binop (op, a, b) -> Ir.Binop (op, expr a, expr b)
      in
      let rec stmt : Ast.stmt -> Ir.stmt = function
        | Ast.Skip -> Ir.Skip
        | Ast.Let (v, e) -> Ir.Let (v, expr e)
        | Ast.Store (name, idx, e) -> Ir.Store (tag, name, expr idx, expr e)
        | Ast.Fetch_add (name, idx, e) ->
            Ir.Fetch_add (tag, name, expr idx, expr e)
        | Ast.Barrier -> Ir.Barrier
        | Ast.Compute e -> Ir.Compute (expr e)
        | Ast.Seq l -> Ir.Seq (List.map stmt l)
        | Ast.If (c, a, b) -> Ir.If (expr c, stmt a, stmt b)
        | Ast.For (v, lo, hi, body) ->
            Ir.For (v, expr lo, expr hi, stmt body)
        | Ast.While (c, body) -> Ir.While (expr c, stmt body)
      in
      Ok { Ir.shared = prog.Ast.shared; body = stmt prog.Ast.body }

let lower_exn ~instrument prog =
  match lower ~instrument prog with
  | Ok p -> p
  | Error msg -> invalid_arg ("Compile.lower: " ^ msg)

let load ~instrument path =
  let source = In_channel.with_open_text path In_channel.input_all in
  Result.map_error
    (fun msg -> path ^ ": " ^ msg)
    (Result.bind (Parser.parse source) (lower ~instrument))
