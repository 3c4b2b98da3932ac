module Label = Dsm_sim.Label
module Vector_clock = Dsm_clocks.Vector_clock

(* Sleep-set dynamic partial-order reduction over the explorer's
   first-deviation DFS.

   The tree is the same one {!Explore.explore_exhaustive_in} walks, and
   so is the loop: {!Explore.dfs_in}, with nodes that carry sleep sets.
   A node is a decision prefix, its children deviate at one choice point
   with one untaken branch. Sleep sets prune the children whose first
   deviating event commutes with everything executed since an equivalent
   subtree was explored: when the parent's continuation fired event
   [e_0] at point [p], every sibling branch explored after it carries
   [e_0] as a {e sleeper} — "the subtree where [e_0] fires here is
   already covered; do not fire [e_0] again until something dependent
   with it has fired." A child whose deviating event is a live sleeper
   is not run at all; its whole subtree is a set of Mazurkiewicz-trace
   duplicates of runs the search executes anyway.

   Dependence comes from three measured sources, each sound by
   construction:
   - the packed footprint labels carried by heap entries
     ({!Dsm_sim.Label}): two known labels commute iff they agree on
     neither node nor origin;
   - the unknown label: any unlabeled event (timers, setup) is
     dependent with everything, waking every sleeper ([kill_floor]);
   - the chained-grant counter ({!Ready_log.chain_delta}): an event
     that granted queued range locks from inside a release ran another
     origin's continuation synchronously, so its true footprint exceeds
     its label — it too wakes every sleeper.

   Wake-ups are detected with the vector-clock machinery: a per-run
   [touch] clock over [2n] components (node 0..n-1, origin n..2n-1)
   absorbs, at each choice point [q], the chosen event's components
   stamped with [q + 1]. A sleeper born at point [b] is alive at a
   later point iff both its components still carry stamps [<= b] — no
   dependent event has fired since it went to sleep — and [b] is at or
   past the kill floor. Filtering only at choice points is complete:
   a pending sleeper sits in the heap at the run's current instant (it
   was ready when born and time cannot pass it), so every {e other}
   event executed while a sleeper lives ties with it — a choice point
   with a measured label and chain delta. The one silent pop is the
   sleeper itself firing alone, and that is detected structurally: a
   pending sleeper appears in every choice-point ready view, so a live
   sleeper {e absent} from the view has fired, and the rest of the
   continuation — like a continuation that fires a sleeper at a choice
   point — only revisits subtrees explored where the sleeper originally
   fired. Both cases stop child generation; the children never
   generated are counted as pruned and their prefixes recorded, since
   each is a node the unreduced DFS does execute.

   Sleepers cross runs by sequence number: a sleeper's event was
   scheduled in the shared prefix, so sibling runs see it in their
   heaps under the same seq. Only the measured default event [e_0] is
   put to sleep (unexecuted siblings have known labels but unmeasured
   chain deltas); classic sleep sets would also sleep earlier-explored
   siblings — we trade that pruning away for soundness.

   Pruning is enabled only on fault-free specs: under faults the fabric
   draws from a shared PRNG stream per delivery, so reordering two
   "independent" deliveries changes later draws and the commutation
   argument breaks. With pruning off (or [dpor:false]) this function is
   exactly the bounded-exhaustive DFS, run for run. *)

type stats = {
  runs : int;
  pruned : int;
  violated : int;
  first : (Explore.mode * Explore.run_result) option;
  canons : string list;
  pruned_prefixes : int list list;
}

type sleeper = { s_seq : int; s_label : Label.t; s_born : int }

type node = { prefix : int list; plen : int; sleep : sleeper list }

let explore_in ?(dpor = true) ?(stop_on_first = true) ?(max_runs = 500) ctx
    ~depth =
  let spec = Explore.ctx_spec ctx in
  let pruning = dpor && Dsm_net.Fault.is_none spec.faults in
  let log = Ready_log.create () in
  if pruning then Explore.set_ready_log ctx (Some log);
  let probe = Explore.ctx_probe ctx in
  let n = spec.n in
  let touch = Vector_clock.create ~n:(2 * n) in
  let w = Array.make (2 * n) 0 in
  let executed = ref 0 in
  let pruned = ref 0 in
  let violated = ref 0 in
  let first = ref None in
  let canons : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  let ledger = ref [] in
  (* The children of the run just executed from node [{plen; sleep}],
     minus the sleep-set redundant ones, which are counted and recorded
     instead. *)
  let expand { prefix = _; plen; sleep } =
    let horizon = min depth (Explore.last_choice_points ctx) in
    Vector_clock.reset touch;
    let kill_floor = ref 0 in
    let alive = ref sleep in
    let children = ref [] in
    (* The inherited sleepers were certified alive at entry to the
       deviation point plen-1 by the parent (the prefix below it is
       shared and deterministic), so filtering resumes there: the
       forced branch at plen-1 is this run's first divergent event. *)
    let start = max 0 (plen - 1) in
    (* The untaken branches at points [q0, horizon) after the
       continuation has fired a sleeper: each deviates off a redundant
       suffix, i.e. lands inside a subtree the search explored where
       that sleeper fired at its birth point. They are exactly the nodes
       the unreduced DFS would push from this run, so each counts as one
       pruned schedule. *)
    let prune_rest q0 =
      for q' = q0 to horizon - 1 do
        let view' = Ready_log.view log q' in
        let base' = List.init q' (Explore.last_chosen_at ctx) in
        for k = 1 to Array.length view' - 1 do
          incr pruned;
          ledger := (base' @ [ k ]) :: !ledger;
          if probe.Dsm_obs.Probe.on then
            Dsm_obs.Probe.emit probe (Dpor_prune { point = q'; branch = k })
        done
      done
    in
    (try
       for q = start to horizon - 1 do
         let view = Ready_log.view log q in
         let chosen = Explore.last_chosen_at ctx q in
         let e_seq, e_label = view.(chosen) in
         let delta = Ready_log.chain_delta log q in
         alive :=
           List.filter
             (fun z ->
               z.s_born >= !kill_floor
               && Vector_clock.entry touch (Label.node z.s_label) <= z.s_born
               && Vector_clock.entry touch (n + Label.origin z.s_label)
                  <= z.s_born)
             !alive;
         let slept seq = List.exists (fun z -> z.s_seq = seq) !alive in
         (* A live sleeper missing from the view fired alone at its
            instant somewhere before this point (the only pop the
            choice-point log cannot see): from here on the run
            duplicates the subtree explored when it fired in place, so
            no child from this point — this one included — is worth
            keeping. *)
         if
           List.exists
             (fun z -> not (Array.exists (fun (s, _) -> s = z.s_seq) view))
             !alive
         then begin
           prune_rest q;
           raise Exit
         end;
         if q >= plen then begin
           let base = List.init q (Explore.last_chosen_at ctx) in
           let child_sleep =
             if Label.is_known e_label && delta = 0 && not (slept e_seq) then
               { s_seq = e_seq; s_label = e_label; s_born = q } :: !alive
             else !alive
           in
           for k = 1 to Array.length view - 1 do
             let k_seq, _ = view.(k) in
             if slept k_seq then begin
               incr pruned;
               ledger := (base @ [ k ]) :: !ledger;
               if probe.Dsm_obs.Probe.on then
                 Dsm_obs.Probe.emit probe (Dpor_prune { point = q; branch = k })
             end
             else
               children :=
                 { prefix = base @ [ k ]; plen = q + 1; sleep = child_sleep }
                 :: !children
           done
         end;
         (* Continuation fired a sleeper: everything from here on
            duplicates an explored subtree, so stop generating deeper
            children. The siblings at this very point still deviate
            before the sleeper fires and were generated above. *)
         if slept e_seq then begin
           prune_rest (q + 1);
           raise Exit
         end;
         if (not (Label.is_known e_label)) || delta > 0 then
           kill_floor := q + 1
         else begin
           let d = Label.node e_label and o = Label.origin e_label in
           w.(d) <- q + 1;
           w.(n + o) <- q + 1;
           Vector_clock.merge_words ~into:touch w ~off:0;
           w.(d) <- 0;
           w.(n + o) <- 0
         end
       done
     with Exit -> ());
    List.rev !children
  in
  Explore.dfs_in ctx
    ~root:{ prefix = []; plen = 0; sleep = [] }
    ~prefix:(fun node -> node.prefix)
    ~until:(fun () ->
      !executed >= max_runs || (stop_on_first && Option.is_some !first))
    (fun node r ->
      incr executed;
      Hashtbl.replace canons (Explore.raw_canon r) ();
      if Explore.raw_violating r then begin
        incr violated;
        if Option.is_none !first then
          first := Some (Explore.Script node.prefix, Explore.result_of ctx r)
      end;
      if pruning then expand node
      else
        List.map
          (fun p -> { prefix = p; plen = List.length p; sleep = [] })
          (Explore.last_children ctx ~plen:node.plen ~depth));
  if pruning then Explore.set_ready_log ctx None;
  let canon_list =
    List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) canons [])
  in
  {
    runs = !executed;
    pruned = !pruned;
    violated = !violated;
    first = !first;
    canons = canon_list;
    pruned_prefixes = List.rev !ledger;
  }

let explore ?metrics ?dpor ?stop_on_first ?max_runs spec ~depth =
  explore_in ?dpor ?stop_on_first ?max_runs
    (Explore.create_ctx ?metrics spec)
    ~depth
