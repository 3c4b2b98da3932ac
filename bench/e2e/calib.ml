(* Host-speed calibration. The benchmark's shared host drifts by 10-50%
   in phases of seconds to minutes, and every CPU-bound process slows
   with it, so raw CPU times of two runs of the same code can disagree
   past any usable bound. A fixed reference pass that uses no dsmcheck
   code is timed between samples. Each sample's host times are scaled
   by [nominal_s] / (mean of the passes just before and just after it):
   the time the sample would have taken at the host speed at which the
   pass takes [nominal_s]. A change to dsmcheck moves the sample and not
   the pass, so it shows in full. *)

(* The pass's median CPU time over 2000 passes on the 2-core host the
   baselines in README.md come from. *)
let nominal_s = 0.014

(* 8 MiB outside the OCaml heap: the pass neither grows the heap the
   benchmark reports nor adds to the garbage collector's work. *)
let table =
  let t = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (1 lsl 20) in
  Bigarray.Array1.fill t 1;
  t

(* Random reads and writes over the table: bound by memory latency. *)
let scatter () =
  let mask = Bigarray.Array1.dim table - 1 in
  let x = ref 12345 and acc = ref 0 in
  for _ = 1 to 1_000_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let j = !x land mask in
    let v = Bigarray.Array1.unsafe_get table j in
    acc := !acc + v;
    Bigarray.Array1.unsafe_set table j (v land 0xff)
  done;
  ignore (Sys.opaque_identity !acc)

(* Short-lived lists, sorting and a balanced tree: the allocation and
   pointer chasing the simulator does, within the minor heap. *)
module Int_map = Map.Make (Int)

let allocate () =
  let acc = ref 0 in
  for i = 1 to 200 do
    let l = List.init 256 (fun k -> ((k * 7919) + i) land 1023) in
    let m = List.fold_left (fun m k -> Int_map.add k i m) Int_map.empty l in
    acc := !acc + List.hd (List.sort compare l) + Int_map.cardinal m
  done;
  ignore (Sys.opaque_identity !acc)

(* CPU seconds of one reference pass, from a collected heap so that no
   major slice of the benchmark's own garbage lands in it. *)
let pass () =
  Gc.full_major ();
  let t0 = Span.cpu () in
  scatter ();
  allocate ();
  Span.cpu () -. t0
