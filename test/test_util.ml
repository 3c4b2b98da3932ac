(* Shared helpers for the test suites. *)

(* [contains haystack needle]: naive substring search, sufficient for
   asserting on rendered output. *)
let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  if nn = 0 then true
  else begin
    let found = ref false in
    let i = ref 0 in
    while (not !found) && !i <= nh - nn do
      if String.sub haystack !i nn = needle then found := true else incr i
    done;
    !found
  end

(* Words allocated while running [f]: minor-heap words plus words
   allocated straight into the major heap (arrays past the minor-heap
   size limit). [Gc.allocated_bytes] sums the same counters, but OCaml
   5.1 under-reports its minor share eightfold, so the minor words come
   from [Gc.minor_words]. *)
let allocated_words f =
  let _, pro0, major0 = Gc.counters () in
  let minor0 = Gc.minor_words () in
  let r = f () in
  let minor1 = Gc.minor_words () in
  let _, pro1, major1 = Gc.counters () in
  (r, minor1 -. minor0 +. (major1 -. major0) -. (pro1 -. pro0))

(* Clock helpers the library does not export: value equality and the
   sum of the components, read through the dense form, a printer for
   [Order] verdicts, and a matrix clock's row [j] as a vector clock. *)
let vc_equal a b = Dsm_clocks.Vector_clock.(to_array a = to_array b)

let vc_sum c = Array.fold_left ( + ) 0 (Dsm_clocks.Vector_clock.to_array c)

let order_pp ppf (o : Dsm_clocks.Order.t) =
  Format.pp_print_string ppf
    (match o with
    | Equal -> "equal"
    | Before -> "before"
    | After -> "after"
    | Concurrent -> "concurrent")

let matrix_row m j =
  let open Dsm_clocks in
  Vector_clock.of_array
    (Array.init (Matrix_clock.dim m) (fun k -> Matrix_clock.entry m j k))

(* Counts the clock-plane control messages an Explicit-transport
   detector sends on machine [m] from now on: a [dsm.vget] round trip
   is its request and its reply, a [dsm.vput] one message. Returns the
   reader. *)
let meta_messages m =
  let count = ref 0 in
  Dsm_obs.Probe.attach
    (Dsm_sim.Engine.probe (Dsm_rdma.Machine.sim m))
    Dsm_obs.Probe.msg
    (function
      | Dsm_obs.Probe.Msg_sent { msg = { kind = Control; name; _ }; _ } ->
          if name = "dsm.vget" then count := !count + 2
          else if name = "dsm.vput" then incr count
      | _ -> ());
  fun () -> !count
