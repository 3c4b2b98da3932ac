(* Per-run recording of the engine's choice points: the ready set's
   (seq, label) view at every point, plus the machine's chained-grant
   counter sampled on entry to each point and once more when the run
   ends. The DPOR layer replays this log after the run to decide which
   sleeping events were woken and which sibling branches commute.

   The view arrays come straight from [Engine.set_choice_view] (already
   sorted by seq, index-aligned with the chooser's pick) and are kept by
   reference; the log owns nothing else. Buffers grow geometrically and
   are reused across runs. *)

type t = {
  mutable views : (int * int) array array;
  mutable marks : int array;
  mutable len : int;
  mutable final_mark : int;
  mutable sample : unit -> int;
}

let no_sample () = 0

let create () =
  {
    views = [||];
    marks = [||];
    len = 0;
    final_mark = 0;
    sample = no_sample;
  }

let reset t ~sample =
  t.len <- 0;
  t.final_mark <- 0;
  t.sample <- sample

let ensure t =
  let cap = Array.length t.marks in
  if t.len >= cap then begin
    let cap' = max 16 (cap * 2) in
    let views' = Array.make cap' [||] in
    let marks' = Array.make cap' 0 in
    Array.blit t.views 0 views' 0 t.len;
    Array.blit t.marks 0 marks' 0 t.len;
    t.views <- views';
    t.marks <- marks'
  end

let observe t view =
  ensure t;
  t.views.(t.len) <- view;
  t.marks.(t.len) <- t.sample ();
  t.len <- t.len + 1

let finish t = t.final_mark <- t.sample ()

let view t i =
  if i < 0 || i >= t.len then invalid_arg "Ready_log.view: out of range";
  t.views.(i)

(* Chained grants attributed to the event chosen at point [i]: the
   counter's advance between entering point [i] and entering point
   [i + 1] (or the end of the run). Grants chained by non-choice events
   in between are charged to point [i] too — an overapproximation that
   only makes the DPOR layer more conservative, never unsound. *)
let chain_delta t i =
  if i < 0 || i >= t.len then invalid_arg "Ready_log.chain_delta";
  (if i + 1 < t.len then t.marks.(i + 1) else t.final_mark) - t.marks.(i)
