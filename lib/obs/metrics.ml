(* Named monotonic counters and log-bucket histograms.

   The registry is arena-friendly: instruments are allocated once (on
   first lookup by name) and [reset] zeroes them in place, so a
   metrics-carrying [Explore.ctx] reused across thousands of runs
   allocates nothing per run. [merge_into] is a plain sum/min/max fold,
   hence commutative and associative — the parallel explorer merges its
   per-domain registries in whatever order workers finish. *)

type counter = { mutable n : int }

let buckets = 63 (* bucket i counts values v with bit_length v = i *)

type histogram = {
  mutable count : int;
  mutable sum : int;
  mutable min : int;
  mutable max : int;
  b : int array;
}

type t = {
  counters : (string, counter) Hashtbl.t;
  histograms : (string, histogram) Hashtbl.t;
}

let create () =
  { counters = Hashtbl.create 32; histograms = Hashtbl.create 16 }

let counter t name =
  match Hashtbl.find_opt t.counters name with
  | Some c -> c
  | None ->
      let c = { n = 0 } in
      Hashtbl.add t.counters name c;
      c

let histogram t name =
  match Hashtbl.find_opt t.histograms name with
  | Some h -> h
  | None ->
      let h =
        {
          count = 0;
          sum = 0;
          min = max_int;
          max = min_int;
          b = Array.make buckets 0;
        }
      in
      Hashtbl.add t.histograms name h;
      h

let incr c = c.n <- c.n + 1

let add c k =
  if k < 0 then invalid_arg "Metrics.add: counters are monotonic";
  c.n <- c.n + k

let value c = c.n

(* bucket of v: 0 for v <= 0, otherwise the bit length of v, so bucket i
   (i >= 1) holds values in [2^(i-1), 2^i). *)
let bucket_of v =
  if v <= 0 then 0
  else begin
    let i = ref 0 and v = ref v in
    while !v > 0 do
      i := !i + 1;
      v := !v lsr 1
    done;
    min !i (buckets - 1)
  end

let bucket_lo i = if i = 0 then 0 else 1 lsl (i - 1)

let observe h v =
  h.count <- h.count + 1;
  h.sum <- h.sum + v;
  if v < h.min then h.min <- v;
  if v > h.max then h.max <- v;
  let i = bucket_of v in
  h.b.(i) <- h.b.(i) + 1

let reset t =
  Hashtbl.iter (fun _ c -> c.n <- 0) t.counters;
  Hashtbl.iter
    (fun _ h ->
      h.count <- 0;
      h.sum <- 0;
      h.min <- max_int;
      h.max <- min_int;
      Array.fill h.b 0 buckets 0)
    t.histograms

let merge_into ~into src =
  Hashtbl.iter
    (fun name c ->
      let d = counter into name in
      d.n <- d.n + c.n)
    src.counters;
  Hashtbl.iter
    (fun name h ->
      let d = histogram into name in
      d.count <- d.count + h.count;
      d.sum <- d.sum + h.sum;
      if h.min < d.min then d.min <- h.min;
      if h.max > d.max then d.max <- h.max;
      Array.iteri (fun i k -> d.b.(i) <- d.b.(i) + k) h.b)
    src.histograms

(* ---------- snapshots ---------- *)

type hist_snapshot = {
  count : int;
  sum : int;
  min : int;  (** meaningless when [count = 0] *)
  max : int;
  bucket_counts : (int * int) list;  (** (bucket lower bound, count), nonzero only *)
}

type snapshot = {
  counters : (string * int) list;  (** sorted by name *)
  histograms : (string * hist_snapshot) list;  (** sorted by name *)
}

let snapshot (t : t) =
  let cs =
    Hashtbl.fold (fun name c acc -> (name, c.n) :: acc) t.counters []
  in
  let hs =
    Hashtbl.fold
      (fun name h acc ->
        let bs = ref [] in
        for i = buckets - 1 downto 0 do
          if h.b.(i) > 0 then bs := (bucket_lo i, h.b.(i)) :: !bs
        done;
        ( name,
          {
            count = h.count;
            sum = h.sum;
            min = h.min;
            max = h.max;
            bucket_counts = !bs;
          } )
        :: acc)
      t.histograms []
  in
  let by_name (a, _) (b, _) = String.compare a b in
  { counters = List.sort by_name cs; histograms = List.sort by_name hs }

let mean (h : hist_snapshot) =
  if h.count = 0 then 0. else float_of_int h.sum /. float_of_int h.count

let pp ppf (s : snapshot) =
  Format.fprintf ppf "@[<v>";
  let first = ref true in
  let cut () = if !first then first := false else Format.fprintf ppf "@," in
  List.iter
    (fun (name, v) ->
      cut ();
      Format.fprintf ppf "%-32s %12d" name v)
    s.counters;
  List.iter
    (fun (name, h) ->
      cut ();
      if h.count = 0 then Format.fprintf ppf "%-32s %12s" name "empty"
      else
        Format.fprintf ppf "%-32s %12d  min %d  mean %.1f  max %d" name
          h.count h.min (mean h) h.max)
    s.histograms;
  Format.fprintf ppf "@]"

module W = Json_writer

let to_json_string (s : snapshot) =
  let buf = Buffer.create 1024 in
  let entry i name =
    if i > 0 then Buffer.add_char buf ',';
    Buffer.add_string buf "\n    ";
    W.key ~spaced:true buf name
  in
  Buffer.add_string buf "{\n  \"counters\": {";
  List.iteri
    (fun i (name, v) ->
      entry i name;
      W.int buf v)
    s.counters;
  Buffer.add_string buf "\n  },\n  \"histograms\": {";
  List.iteri
    (fun i (name, h) ->
      entry i name;
      Buffer.add_string buf "{ ";
      W.members ~spaced:true buf
        [
          ("count", Int h.count);
          ("sum", Int h.sum);
          ("min", Int (if h.count = 0 then 0 else h.min));
          ("max", Int (if h.count = 0 then 0 else h.max));
        ];
      Buffer.add_string buf ", ";
      W.key ~spaced:true buf "buckets";
      W.list
        (fun buf (lo, k) -> W.list W.int buf [ lo; k ])
        buf h.bucket_counts;
      Buffer.add_string buf " }")
    s.histograms;
  Buffer.add_string buf "\n  }\n}\n";
  Buffer.contents buf
