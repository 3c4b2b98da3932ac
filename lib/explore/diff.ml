module Model = Dsm_rdma.Model

type finding = {
  walk : int;
  decisions : int list;
  token_a : Token.t;
  token_b : Token.t;
  races_a : int;
  races_b : int;
  canon_a : string;
  canon_b : string;
  race_dependent : bool;
  missing_edges : string list;
}

type outcome = {
  schedules : int;
  differing : int;
  race_dependent : int;
  first : finding option;
}

(* One sentence per hook, phrased as the guarantee the stronger model
   provides — what the weaker model's detector (or protocol) is missing
   when its verdict differs. *)
let edge_descriptions =
  [
    ( (fun (h : Model.hooks) -> h.Model.atomic_puts),
      "atomic puts: the whole span applies in one step under the region \
       lock (no torn-read window between words)" );
    ( (fun h -> h.Model.get_delays_put),
      "get-delays-put: a get holds the destination region lock across \
       its round trip, so no put applies inside the get window" );
    ( (fun h -> not h.Model.put_reorder_granules),
      "FIFO puts: put frames on the same (src, dst) edge deliver in \
       send order" );
    ( (fun h -> h.Model.read_acquires_writes),
      "read-acquire edge: a read absorbs the granule's write history, \
       ordering the reader's later accesses after the writes it \
       observed" );
    ( (fun h -> h.Model.rmw_acquires_order),
      "RMW S-serialization edge: RMWs to one granule serialize through \
       its S clock, so concurrent RMWs never race with each other" );
    ( (fun h -> h.Model.write_acquires_order),
      "total-store-order edge: a write absorbs the granule's full \
       access history, ordering any two schedule-ordered writes" );
  ]

let missing_edges ~weak ~strong =
  let hw = Model.hooks weak and hs = Model.hooks strong in
  List.filter_map
    (fun (get, text) -> if get hs && not (get hw) then Some text else None)
    edge_descriptions

let run ?(runs = 100) ?depth (spec : Explore.spec) (model_a, model_b) =
  let spec_a = { spec with model = model_a } in
  let spec_b = { spec with model = model_b } in
  let ctx_a = Explore.create_ctx spec_a in
  let ctx_b = Explore.create_ctx spec_b in
  let schedules = ref 0 in
  let differing = ref 0 in
  let race_dep = ref 0 in
  let first : finding option ref = ref None in
  let consider walk (ra : Explore.run_result) =
    incr schedules;
    let decisions = Token.trim_trailing_zeros ra.Explore.decisions in
    let rb = Explore.run_once_in ctx_b (Explore.Script decisions) in
    if ra.Explore.canon <> rb.Explore.canon then begin
      incr differing;
      let race_dependent =
        ra.Explore.races > 0 <> (rb.Explore.races > 0)
      in
      if race_dependent then incr race_dep;
      let better =
        match !first with
        | None -> true
        | Some f -> race_dependent && not f.race_dependent
      in
      if better then begin
        (* Name the edges the race-reporting side is missing; when both
           (or neither) report races, union the two directions. *)
        let missing_edges =
          if ra.Explore.races > rb.Explore.races then
            missing_edges ~weak:model_a ~strong:model_b
          else if rb.Explore.races > ra.Explore.races then
            missing_edges ~weak:model_b ~strong:model_a
          else
            missing_edges ~weak:model_a ~strong:model_b
            @ missing_edges ~weak:model_b ~strong:model_a
        in
        first :=
          Some
            {
              walk;
              decisions;
              token_a = Token.make spec_a decisions;
              token_b = Token.make spec_b decisions;
              races_a = ra.Explore.races;
              races_b = rb.Explore.races;
              canon_a = ra.Explore.canon;
              canon_b = rb.Explore.canon;
              race_dependent;
              missing_edges;
            }
      end
    end
  in
  (match depth with
  | None ->
      for walk = 0 to runs - 1 do
        consider walk (Explore.run_once_in ctx_a (Explore.Walk walk))
      done
  | Some depth ->
      (* Bounded-exhaustive: the explorer's own DFS, keeping every
         schedule where [Explore.explore_exhaustive_in] stops at the
         first violation. *)
      Explore.dfs_in ctx_a ~root:[] ~prefix:Fun.id
        ~until:(fun () -> !schedules >= runs)
        (fun prefix r ->
          consider !schedules (Explore.result_of ctx_a r);
          Explore.last_children ctx_a ~plen:(List.length prefix) ~depth));
  {
    schedules = !schedules;
    differing = !differing;
    race_dependent = !race_dep;
    first = !first;
  }
