module Int_tbl = Dsm_sim.Int_tbl
module Probe = Dsm_obs.Probe

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
  probe : Probe.t;
  mutable violations : violation list;
  mutable rmw_violations : string list; (* newest first *)
  mutable checked : int;
}

let key t ~node ~offset = (offset * t.nodes) + node

let record t ~node ~offset value =
  Int_tbl.replace t.shadow (key t ~node ~offset) value

(* A read of never-written memory used to be silent adoption even when
   the scenario had declared an initial value for it; seeding the shadow
   with the init image makes the first read checkable like any other. *)
let declare_init t ~node ~offset data =
  Array.iteri (fun i v -> record t ~node ~offset:(offset + i) v) data

let violate t ~time ~node ~offset ~origin ~expected observed =
  t.violations <-
    { time; node; offset; expected; observed; origin } :: t.violations;
  if t.probe.on land Probe.coherence <> 0 then
    Probe.emit t.probe
      (Coherence_violation { time; node; offset; origin })

let check t ~time ~node ~offset ~origin observed =
  t.checked <- t.checked + 1;
  match Int_tbl.find t.shadow (key t ~node ~offset) with
  | exception Not_found -> record t ~node ~offset observed
  | expected ->
      if expected <> observed then
        violate t ~time ~node ~offset ~origin ~expected observed

let rmw_violate t fmt =
  Printf.ksprintf (fun s -> t.rmw_violations <- s :: t.rmw_violations) fmt

(* One word of an RMW at its linearization point: [old] is what the NIC
   claims the cell held, [result] what it left behind, [spec] the serial
   specification's result for [old]. Its read side is checked like any
   read; an [old] that disagrees with the shadow is also a lost update,
   because some earlier apply's effect went missing. Its write side
   updates the shadow. *)
let rmw_word t ~what ~time ~node ~offset ~origin ~old ~result ~spec =
  t.checked <- t.checked + 1;
  (match Int_tbl.find t.shadow (key t ~node ~offset) with
  | exception Not_found -> ()
  | expected ->
      if expected <> old then begin
        violate t ~time ~node ~offset ~origin ~expected old;
        rmw_violate t
          "%s at t=%.3f on %d[%d] by P%d: read %d but the reference heap \
           holds %d (lost update)"
          what time node offset origin old expected
      end);
  if result <> spec then
    rmw_violate t
      "%s at t=%.3f on %d[%d] by P%d: left %d behind but the serial \
       specification of old=%d gives %d"
      what time node offset origin result old spec;
  record t ~node ~offset result

let sink t (ev : Probe.event) =
  match ev with
  | Write_applied { node; offset; data; _ } ->
      Array.iteri (fun i v -> record t ~node ~offset:(offset + i) v) data
  | Read_served { time; node; offset; data; origin } ->
      Array.iteri
        (fun i v -> check t ~time ~node ~offset:(offset + i) ~origin v)
        data
  | Atomic_applied { time; node; offset; kind; old_value; new_value; origin }
    ->
      rmw_word t ~what:(Message.atomic_rmw_name kind) ~time ~node ~offset
        ~origin ~old:old_value ~result:new_value
        ~spec:(Message.apply_atomic kind old_value)
  | Acc_applied { time; node; offset; aop; old; data; result; origin } ->
      let what = Message.acc_rmw_name aop in
      Array.iteri
        (fun i o ->
          rmw_word t ~what ~time ~node ~offset:(offset + i) ~origin ~old:o
            ~result:result.(i)
            ~spec:(Message.apply_acc aop o data.(i)))
        old
  | _ -> ()

let attach m =
  let t =
    {
      shadow = Int_tbl.create 256;
      nodes = Machine.n m;
      probe = Dsm_sim.Engine.probe (Machine.sim m);
      violations = [];
      rmw_violations = [];
      checked = 0;
    }
  in
  Probe.attach t.probe Probe.apply (sink t);
  t

let reset t =
  Int_tbl.clear t.shadow;
  t.violations <- [];
  t.rmw_violations <- [];
  t.checked <- 0

let violations t = List.rev t.violations

let rmw_violations t = List.rev t.rmw_violations

let expected t ~node ~offset =
  match Int_tbl.find t.shadow (key t ~node ~offset) with
  | v -> Some v
  | exception Not_found -> None

let checked_words t = t.checked

let is_clean t = t.violations = []

let pp_violation ppf v =
  Format.fprintf ppf
    "COHERENCE VIOLATION at t=%.2f: P%d read P%d.pub[%d] = %d, last applied write was %d"
    v.time v.origin v.node v.offset v.observed v.expected
