open Dsm_memory

type words = (int * int) list

type confusion = {
  true_pos : int;
  false_pos : int;
  false_neg : int;
  precision : float;
  recall : float;
}

let region_words (r : Addr.region) =
  List.init r.len (fun i -> (r.base.pid, r.base.offset + i))

let ground_truth_words trace =
  let words = ref [] in
  List.iter
    (fun { Dsm_trace.Trace.first; second } ->
      let lo = max first.target.base.offset second.target.base.offset in
      let hi =
        min
          (Addr.last_offset first.target)
          (Addr.last_offset second.target)
      in
      for o = lo to hi do
        words := (first.target.base.pid, o) :: !words
      done)
    (Dsm_trace.Trace.races trace);
  List.sort_uniq compare !words

let detector_words report =
  List.sort_uniq compare
    (List.concat_map
       (fun r -> region_words r.Dsm_core.Report.granule)
       (Dsm_core.Report.races report))

let confusion ~truth ~flagged =
  let truth_set = Hashtbl.create 64 and flag_set = Hashtbl.create 64 in
  List.iter (fun w -> Hashtbl.replace truth_set w ()) truth;
  List.iter (fun w -> Hashtbl.replace flag_set w ()) flagged;
  let true_pos =
    List.length (List.filter (Hashtbl.mem truth_set) flagged)
  in
  let false_pos = List.length flagged - true_pos in
  let false_neg =
    List.length (List.filter (fun w -> not (Hashtbl.mem flag_set w)) truth)
  in
  let ratio num den = if den = 0 then 1.0 else float_of_int num /. float_of_int den in
  {
    true_pos;
    false_pos;
    false_neg;
    precision = ratio true_pos (true_pos + false_pos);
    recall = ratio true_pos (true_pos + false_neg);
  }

let f1 c =
  if c.precision +. c.recall = 0. then 0.
  else 2. *. c.precision *. c.recall /. (c.precision +. c.recall)
