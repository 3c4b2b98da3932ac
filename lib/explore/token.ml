type spec = {
  scenario : string;
  n : int;
  seed : int;
  latency : Dsm_net.Latency.t;
  model : Dsm_rdma.Model.t;
  faults : Dsm_net.Fault.t;
  reliable : bool;
  bug : bool;
  max_events : int;
}

let default_spec =
  {
    scenario = "getput";
    n = 2;
    seed = 1;
    latency = Dsm_net.Latency.infiniband_like;
    model = Dsm_rdma.Model.default;
    faults = Dsm_net.Fault.none;
    reliable = false;
    bug = false;
    max_events = 200_000;
  }

type t = { spec : spec; decisions : int list }

let magic = "dsm1"

let rec trim_trailing_zeros = function
  | [] -> []
  | ds -> (
      match List.rev ds with
      | 0 :: rest -> trim_trailing_zeros (List.rev rest)
      | _ -> ds)

let make spec decisions = { spec; decisions = trim_trailing_zeros decisions }

(* Programs and workloads build the collectives; [getput] does not. *)
let builds_collectives scenario =
  String.starts_with ~prefix:"workload:" scenario
  || String.starts_with ~prefix:"prog:" scenario

let validate t =
  if t.spec.n < 1 then
    Error (Printf.sprintf "process count must be at least 1, got %d" t.spec.n)
  else if t.spec.max_events < 1 then
    Error
      (Printf.sprintf "event budget must be at least 1, got %d"
         t.spec.max_events)
  else
    match List.find_opt (fun d -> d < 0) t.decisions with
    | Some d ->
        Error (Printf.sprintf "decisions must be non-negative, got %d" d)
    | None ->
        if builds_collectives t.spec.scenario then
          Result.map (fun () -> t) (Dsm_pgas.Collectives.check_n t.spec.n)
        else Ok t

let to_string { spec = s; decisions } =
  (* [l=] and [m=] are omitted at their defaults, so tokens minted before
     the latency and the memory model became selectable keep printing
     (and parsing) unchanged *)
  let unless_default key v default print =
    if v = default then "" else Printf.sprintf "|%s=%s" key (print v)
  in
  Printf.sprintf "%s|s=%s|n=%d|seed=%d%s%s|f=%s|r=%d|b=%d|me=%d|d=%s" magic
    s.scenario s.n s.seed
    (unless_default "l" s.latency default_spec.latency
       Dsm_net.Latency.to_string)
    (unless_default "m" s.model default_spec.model Dsm_rdma.Model.name)
    (Dsm_net.Fault.to_string s.faults)
    (Bool.to_int s.reliable) (Bool.to_int s.bug) s.max_events
    (String.concat "," (List.map string_of_int decisions))

let ( let* ) = Result.bind

let int_field name v =
  match int_of_string_opt v with
  | Some i -> Ok i
  | None -> Error (Printf.sprintf "bad integer in %s=%s" name v)

let bool_field name v =
  match v with
  | "0" -> Ok false
  | "1" -> Ok true
  | _ -> Error (Printf.sprintf "%s must be 0 or 1, got %s" name v)

let field t key v =
  let s = t.spec in
  let spec s = Ok { t with spec = s } in
  match key with
  | "s" -> spec { s with scenario = v }
  | "n" ->
      let* n = int_field key v in
      spec { s with n }
  | "seed" ->
      let* seed = int_field key v in
      spec { s with seed }
  | "l" ->
      let* latency = Dsm_net.Latency.of_string v in
      spec { s with latency }
  | "m" ->
      let* model = Dsm_rdma.Model.of_name v in
      spec { s with model }
  | "f" ->
      let* faults = Dsm_net.Fault.parse v in
      spec { s with faults }
  | "r" ->
      let* reliable = bool_field key v in
      spec { s with reliable }
  | "b" ->
      let* bug = bool_field key v in
      spec { s with bug }
  | "me" ->
      let* max_events = int_field key v in
      spec { s with max_events }
  | "d" when v = "" -> Ok { t with decisions = [] }
  | "d" ->
      let* ds =
        List.fold_left
          (fun acc d ->
            let* acc = acc in
            let* d = int_field key d in
            Ok (d :: acc))
          (Ok []) (String.split_on_char ',' v)
      in
      Ok { t with decisions = List.rev ds }
  | "w" -> (
      (* the retired clock-wire field: it only ever changed accounting,
         so old tokens parse and ignore it *)
      match v with
      | "dense" | "sparse" | "delta" -> Ok t
      | _ ->
          Error (Printf.sprintf "w must be dense, sparse or delta, got %s" v))
  | _ -> Error (Printf.sprintf "unknown field %S" key)

let of_string s =
  let parse (t, seen) f =
    match String.index_opt f '=' with
    | None -> Error (Printf.sprintf "field %S has no '='" f)
    | Some eq ->
        let key = String.sub f 0 eq in
        let v = String.sub f (eq + 1) (String.length f - eq - 1) in
        if List.mem key seen then Error (Printf.sprintf "field %s repeated" key)
        else
          let* t = field t key v in
          Ok (t, key :: seen)
  in
  Result.map_error (fun msg -> "replay token: " ^ msg)
    (match String.split_on_char '|' (String.trim s) with
    | m :: fields when m = magic ->
        let* t, _ =
          List.fold_left
            (fun acc f -> Result.bind acc (fun acc -> parse acc f))
            (Ok ({ spec = default_spec; decisions = [] }, []))
            fields
        in
        validate t
    | _ ->
        Error
          (Printf.sprintf "expected prefix %S (got %S)" magic
             (if String.length s > 16 then String.sub s 0 16 else s)))
