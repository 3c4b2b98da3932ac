type link = {
  drop : float;
  duplicate : float;
  reorder : float;
  jitter : float;
  reorder_window : float;
}

type t = { default : link; overrides : ((int * int) * link) list }

let reliable_link =
  { drop = 0.; duplicate = 0.; reorder = 0.; jitter = 0.; reorder_window = 4.0 }

let none = { default = reliable_link; overrides = [] }

let check_probability name p =
  if p < 0. || p > 1. then
    invalid_arg (Printf.sprintf "Fault: %s out of range [0,1]" name)

let check_delay name d =
  if d < 0. then invalid_arg (Printf.sprintf "Fault: negative %s" name)

let validate_link l =
  check_probability "drop" l.drop;
  check_probability "duplicate" l.duplicate;
  check_probability "reorder" l.reorder;
  check_delay "jitter" l.jitter;
  check_delay "reorder window" l.reorder_window;
  l

(* Called on every send: a plan with no per-link override answers
   without building the (src, dst) key. *)
let link t ~src ~dst =
  match t.overrides with
  | [] -> t.default
  | overrides -> (
      match List.assoc_opt (src, dst) overrides with
      | Some l -> l
      | None -> t.default)

let is_none t =
  t.overrides = []
  && t.default.drop = 0.
  && t.default.duplicate = 0.
  && t.default.reorder = 0.
  && t.default.jitter = 0.

(* ---------- the fault-plan grammar ----------

   A plan is a comma-separated list of [key=value] clauses applied to the
   default link, e.g. "drop=0.1,dup=0.05,reorder=0.2,jitter=1.5". A
   clause prefixed with "src>dst:" overrides one directed link:
   "0>1:drop=0.5". The empty string and "none" are the fault-free plan.
   This is the textual form carried inside replay tokens, so it must
   round-trip exactly. *)

let float_field s =
  match float_of_string_opt s with
  | Some f -> f
  | None -> invalid_arg (Printf.sprintf "Fault.of_string: bad number %S" s)

let apply_clause l key value =
  let v = float_field value in
  match key with
  | "drop" -> { l with drop = v }
  | "dup" | "duplicate" -> { l with duplicate = v }
  | "reorder" -> { l with reorder = v }
  | "jitter" -> { l with jitter = v }
  | "window" -> { l with reorder_window = v }
  | _ -> invalid_arg (Printf.sprintf "Fault.of_string: unknown key %S" key)

let of_string s =
  let s = String.trim s in
  if s = "" || s = "none" then none
  else
    List.fold_left
      (fun t clause ->
        let clause = String.trim clause in
        match String.index_opt clause '=' with
        | None ->
            invalid_arg
              (Printf.sprintf "Fault.of_string: clause %S has no '='" clause)
        | Some eq ->
            let key = String.sub clause 0 eq in
            let value =
              String.sub clause (eq + 1) (String.length clause - eq - 1)
            in
            (* Directed-link prefix: "src>dst:key". *)
            (match String.index_opt key ':' with
            | Some colon -> (
                let linkspec = String.sub key 0 colon in
                let key =
                  String.sub key (colon + 1) (String.length key - colon - 1)
                in
                match String.index_opt linkspec '>' with
                | None ->
                    invalid_arg
                      (Printf.sprintf
                         "Fault.of_string: link spec %S needs src>dst"
                         linkspec)
                | Some gt ->
                    let node s =
                      match int_of_string_opt s with
                      | Some i -> i
                      | None ->
                          invalid_arg
                            (Printf.sprintf "Fault.of_string: bad node %S" s)
                    in
                    let src = node (String.sub linkspec 0 gt) in
                    let dst =
                      node
                        (String.sub linkspec (gt + 1)
                           (String.length linkspec - gt - 1))
                    in
                    if src < 0 || dst < 0 then
                      invalid_arg "Fault.of_string: negative node";
                    let l =
                      validate_link
                        (apply_clause (link t ~src ~dst) key value)
                    in
                    {
                      t with
                      overrides =
                        ((src, dst), l)
                        :: List.remove_assoc (src, dst) t.overrides;
                    })
            | None ->
                { t with default = validate_link (apply_clause t.default key value) }))
      none
      (String.split_on_char ',' s)

(* Emit the clauses that turn [base] into [l]; parsing applies default
   clauses to the zero link and override clauses to the (already parsed)
   default link, so using the matching [base] makes to_string/of_string
   round-trip exactly. *)
let link_clauses prefix ~base l acc =
  let field acc key v ref_v =
    if v <> ref_v then Printf.sprintf "%s%s=%g" prefix key v :: acc else acc
  in
  let acc = field acc "drop" l.drop base.drop in
  let acc = field acc "dup" l.duplicate base.duplicate in
  let acc = field acc "reorder" l.reorder base.reorder in
  let acc = field acc "jitter" l.jitter base.jitter in
  field acc "window" l.reorder_window base.reorder_window

let to_string t =
  if is_none t then "none"
  else
    let clauses = link_clauses "" ~base:reliable_link t.default [] in
    let clauses =
      List.fold_left
        (fun acc ((src, dst), l) ->
          link_clauses (Printf.sprintf "%d>%d:" src dst) ~base:t.default l acc)
        clauses
        (List.rev t.overrides)
    in
    String.concat "," (List.rev clauses)

let parse s = try Ok (of_string s) with Invalid_argument msg -> Error msg
