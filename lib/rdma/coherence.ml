module Int_tbl = Dsm_sim.Int_tbl

type violation = {
  time : float;
  node : int;
  offset : int;
  expected : int;
  observed : int;
  origin : int;
}

type t = {
  shadow : int Int_tbl.t;
      (* [offset * n + node] -> the last value applied there *)
  nodes : int;
  probe : Dsm_obs.Probe.t;
  mutable violations : violation list;
  mutable checked : int;
  mutable adopted : int;
}

let key t ~node ~offset = (offset * t.nodes) + node

let record t ~node ~offset value =
  Int_tbl.replace t.shadow (key t ~node ~offset) value

(* A read of never-written memory used to be silent adoption even when
   the scenario had declared an initial value for it; seeding the shadow
   with the init image makes the first read checkable like any other. *)
let declare_init t ~node ~offset data =
  Array.iteri (fun i v -> record t ~node ~offset:(offset + i) v) data

let check t ~time ~node ~offset ~origin observed =
  t.checked <- t.checked + 1;
  match Int_tbl.find t.shadow (key t ~node ~offset) with
  | exception Not_found ->
      t.adopted <- t.adopted + 1;
      record t ~node ~offset observed
  | expected ->
      if expected <> observed then begin
        t.violations <-
          { time; node; offset; expected; observed; origin } :: t.violations;
        if t.probe.on then
          Dsm_obs.Probe.emit t.probe
            (Coherence_violation { time; node; offset; origin })
      end

let attach m =
  let t =
    {
      shadow = Int_tbl.create 256;
      nodes = Machine.n m;
      probe = Dsm_sim.Engine.probe (Machine.sim m);
      violations = [];
      checked = 0;
      adopted = 0;
    }
  in
  Machine.add_observer m (function
    | Machine.Write_applied { node; offset; data; _ } ->
        Array.iteri (fun i v -> record t ~node ~offset:(offset + i) v) data
    | Machine.Read_served { time; node; offset; data; origin } ->
        Array.iteri
          (fun i v -> check t ~time ~node ~offset:(offset + i) ~origin v)
          data
    | Machine.Atomic_applied
        { time; node; offset; old_value; new_value; origin; _ } ->
        (* The atomic's read side must agree with the shadow; its write
           side updates it. *)
        check t ~time ~node ~offset ~origin old_value;
        record t ~node ~offset new_value
    | Machine.Acc_applied { time; node; offset; old; result; origin; _ } ->
        Array.iteri
          (fun i v ->
            check t ~time ~node ~offset:(offset + i) ~origin v;
            record t ~node ~offset:(offset + i) result.(i))
          old
    | Machine.Sent _ | Machine.Delivered _ -> ());
  t

let violations t = List.rev t.violations

let checked_words t = t.checked

let adopted_words t = t.adopted

let is_clean t = t.violations = []

let pp_violation ppf v =
  Format.fprintf ppf
    "COHERENCE VIOLATION at t=%.2f: P%d read P%d.pub[%d] = %d, last applied write was %d"
    v.time v.origin v.node v.offset v.observed v.expected
