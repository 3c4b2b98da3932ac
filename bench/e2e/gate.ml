(* The regression gate: two untraced result files compared per
   (workload, metric). Host metrics are held to their bound unless the
   quartile spread is wider than it (then "unresolved"); simulated
   metrics and races must be identical; fail_frac must not rise. *)

type results = (string * (string * Stats.t) list) list

let load path : results =
  let j = Json.parse (Json.read_file path) in
  if Json.to_list (Json.field "workloads" j) = [] then
    failwith (path ^ ": no workloads (not a dsmbench --json result)");
  List.map
    (fun w ->
      ( Json.to_str (Json.field "name" w),
        List.map
          (fun (k, v) -> (k, Stats.of_json v))
          (Json.to_assoc (Json.field "metrics" w)) ))
    (Json.to_list (Json.field "workloads" j))

(* The end-to-end bounds a BENCHMARK.json file fixes, by metric name. *)
let bounds_of path =
  List.filter_map
    (fun e ->
      match (Json.str_member "name" e, Json.num_member "bound" e) with
      | Some n, Some b -> Some (n, b)
      | _ -> None)
    (Json.to_list (Json.field "end_to_end" (Json.parse (Json.read_file path))))

let bound_of ~bounds (m : Metric.t) =
  match m.kind with
  | Host | Heap -> Option.value (List.assoc_opt m.name bounds) ~default:m.bound
  | Exact | No_rise -> 0.

let judge (m : Metric.t) ~bound ~spread (base : Stats.t) (next : Stats.t) =
  match m.kind with
  | Exact ->
      if Float.equal base.median next.median then ("same", false)
      else ("CHANGED", true)
  | No_rise -> if next.median > base.median then ("ROSE", true) else ("ok", false)
  | Host | Heap ->
      let worse =
        if base.median = 0. then 0.
        else
          (if m.higher_is_better then base.median -. next.median
           else next.median -. base.median)
          /. Float.abs base.median
      in
      if spread > bound then ("unresolved", false)
      else if worse > bound then ("REGRESSION", true)
      else ("ok", false)

type row = {
  workload : string;
  metric : string;
  base : float;
  next : float;
  spread : float;
  bound : float;
  verdict : string;
  bad : bool;
}

let compare ~bounds (base : results) (next : results) =
  let row workload metric ?(base = nan) ?(next = nan) ?(spread = nan)
      ?(bound = nan) (verdict, bad) =
    { workload; metric; base; next; spread; bound; verdict; bad }
  in
  List.concat_map
    (fun (w, base_metrics) ->
      match List.assoc_opt w next with
      | None -> [ row w "-" ("MISSING", true) ]
      | Some next_metrics ->
          List.filter_map
            (fun (name, (b : Stats.t)) ->
              Option.map
                (fun (m : Metric.t) ->
                  match List.assoc_opt name next_metrics with
                  | None -> row w name ~base:b.median ("MISSING", true)
                  | Some n ->
                      let bound = bound_of ~bounds m in
                      let spread = Float.max (Stats.spread b) (Stats.spread n) in
                      row w name ~base:b.median ~next:n.median ~spread ~bound
                        (judge m ~bound ~spread b n))
                (Metric.find name))
            base_metrics)
    base

let failing rows = List.length (List.filter (fun r -> r.bad) rows)

let print rows =
  Printf.printf "%-18s %-19s %13s %13s %8s %7s %6s  %s\n" "workload" "metric"
    "base" "new" "change" "spread" "bound" "verdict";
  List.iter
    (fun r ->
      let change =
        if r.base = 0. || Float.is_nan r.base then "-"
        else Printf.sprintf "%+.1f%%" (100. *. (r.next -. r.base) /. Float.abs r.base)
      in
      Printf.printf "%-18s %-19s %13.6g %13.6g %8s %6.1f%% %5.1f%%  %s\n"
        r.workload r.metric r.base r.next change (100. *. r.spread)
        (100. *. r.bound) r.verdict)
    rows
