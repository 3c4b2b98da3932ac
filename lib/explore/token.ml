type t = {
  scenario : string;
  n : int;
  seed : int;
  latency : Dsm_net.Latency.t;
  model : Dsm_rdma.Model.t;
  faults : Dsm_net.Fault.t;
  reliable : bool;
  bug : bool;
  max_events : int;
  decisions : int list;
}

let magic = "dsm1"

let rec trim_trailing_zeros = function
  | [] -> []
  | ds -> (
      match List.rev ds with
      | 0 :: rest -> trim_trailing_zeros (List.rev rest)
      | _ -> ds)

let to_string t =
  let d = String.concat "," (List.map string_of_int t.decisions) in
  (* the latency field is omitted at the default so tokens minted before
     the model became selectable keep printing (and parsing) unchanged *)
  let l =
    if t.latency = Dsm_net.Latency.infiniband_like then ""
    else Printf.sprintf "|l=%s" (Dsm_net.Latency.to_string t.latency)
  in
  (* and the memory model: omitted at the default ([nic_atomic]) so
     pre-model tokens keep printing (and parsing) unchanged *)
  let m =
    if t.model = Dsm_rdma.Model.default then ""
    else Printf.sprintf "|m=%s" (Dsm_rdma.Model.name t.model)
  in
  Printf.sprintf "%s|s=%s|n=%d|seed=%d%s%s|f=%s|r=%d|b=%d|me=%d|d=%s" magic
    t.scenario t.n t.seed l m
    (Dsm_net.Fault.to_string t.faults)
    (if t.reliable then 1 else 0)
    (if t.bug then 1 else 0)
    t.max_events d

let int_field name v =
  match int_of_string_opt v with
  | Some i -> Ok i
  | None -> Error (Printf.sprintf "replay token: bad integer in %s=%s" name v)

let bool_field name v =
  match v with
  | "0" -> Ok false
  | "1" -> Ok true
  | _ -> Error (Printf.sprintf "replay token: %s must be 0 or 1, got %s" name v)

let of_string s =
  let ( let* ) = Result.bind in
  match String.split_on_char '|' (String.trim s) with
  | m :: fields when m = magic ->
      let parse acc field =
        let* acc = acc in
        match String.index_opt field '=' with
        | None -> Error (Printf.sprintf "replay token: field %S has no '='" field)
        | Some eq ->
            let key = String.sub field 0 eq in
            let v = String.sub field (eq + 1) (String.length field - eq - 1) in
            let* t = Ok acc in
            (match key with
            | "s" -> Ok { t with scenario = v }
            | "n" ->
                let* n = int_field key v in
                Ok { t with n }
            | "seed" ->
                let* seed = int_field key v in
                Ok { t with seed }
            | "l" ->
                let* latency = Dsm_net.Latency.of_string v in
                Ok { t with latency }
            | "w" -> (
                (* the retired clock-wire field: it only ever changed
                   accounting, so old tokens parse and ignore it *)
                match v with
                | "dense" | "sparse" | "delta" -> Ok t
                | _ ->
                    Error
                      (Printf.sprintf
                         "replay token: w must be dense, sparse or delta, got %s"
                         v))
            | "m" ->
                let* model = Dsm_rdma.Model.of_name v in
                Ok { t with model }
            | "f" -> (
                match Dsm_net.Fault.of_string v with
                | faults -> Ok { t with faults }
                | exception Invalid_argument msg -> Error msg)
            | "r" ->
                let* reliable = bool_field key v in
                Ok { t with reliable }
            | "b" ->
                let* bug = bool_field key v in
                Ok { t with bug }
            | "me" ->
                let* max_events = int_field key v in
                Ok { t with max_events }
            | "d" ->
                if v = "" then Ok { t with decisions = [] }
                else
                  let* ds =
                    List.fold_left
                      (fun acc d ->
                        let* acc = acc in
                        let* d = int_field "d" d in
                        Ok (d :: acc))
                      (Ok [])
                      (String.split_on_char ',' v)
                  in
                  Ok { t with decisions = List.rev ds }
            | _ -> Error (Printf.sprintf "replay token: unknown field %S" key))
      in
      List.fold_left parse
        (Ok
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
             decisions = [];
           })
        fields
  | _ ->
      Error
        (Printf.sprintf "replay token: expected prefix %S (got %S)" magic
           (if String.length s > 16 then String.sub s 0 16 else s))

let pp ppf t = Format.pp_print_string ppf (to_string t)
