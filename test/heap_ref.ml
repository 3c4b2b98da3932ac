(* Reference oracle for the event heap: the entry-record binary heap the
   engine used before its heap became parallel arrays. Each entry is one
   record of (time, seq, label, value); both sifts move a hole over the
   same (time, seq) comparisons. The live heap must pop the same values
   in the same order, pick the same k-th ready entry and report the same
   ready set. *)

open Dsm_sim

type 'a entry = { time : float; seq : int; label : int; value : 'a }

(* Slots at and past [size] hold [vacant], never a popped or cleared
   entry, so the heap keeps no dead value reachable. *)
type 'a t = {
  mutable data : 'a entry array;
  mutable size : int;
  vacant : 'a entry;
}

let create ~dummy =
  {
    data = [||];
    size = 0;
    vacant = { time = 0.; seq = 0; label = Label.unknown; value = dummy };
  }

let is_empty h = h.size = 0

let lt a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let grow h =
  let cap = Array.length h.data in
  let cap' = if cap = 0 then 16 else cap * 2 in
  let data' = Array.make cap' h.vacant in
  Array.blit h.data 0 data' 0 h.size;
  h.data <- data'

(* Both sifts move a hole rather than swap: [e] is written once, where
   it lands, and each level passed costs one write. Every comparison is
   the one a swapping sift makes, so entries land where it put them. *)
let rec sift_up h i e =
  if i = 0 then h.data.(0) <- e
  else
    let parent = (i - 1) / 2 in
    let p = h.data.(parent) in
    if lt e p then begin
      h.data.(i) <- p;
      sift_up h parent e
    end
    else h.data.(i) <- e

let rec sift_down h i e =
  let l = (2 * i) + 1 in
  if l >= h.size then h.data.(i) <- e
  else
    let r = l + 1 in
    let c = if r < h.size && lt h.data.(r) h.data.(l) then r else l in
    let child = h.data.(c) in
    if lt child e then begin
      h.data.(i) <- child;
      sift_down h c e
    end
    else h.data.(i) <- e

let add h ~time ~seq ?(label = Label.unknown) value =
  let entry = { time; seq; label; value } in
  if h.size = Array.length h.data then
    if h.size = 0 then h.data <- Array.make 16 h.vacant else grow h;
  h.size <- h.size + 1;
  sift_up h (h.size - 1) entry

(* Remove the entry at array index [i]: the last entry fills the hole,
   sifted whichever way the heap property needs. *)
let remove_index h i =
  let last = h.size - 1 in
  let e = h.data.(last) in
  h.size <- last;
  h.data.(last) <- h.vacant;
  if i < last then
    if i > 0 && lt e h.data.((i - 1) / 2) then sift_up h i e
    else sift_down h i e

let pop h =
  if h.size = 0 then None
  else begin
    let top = h.data.(0) in
    remove_index h 0;
    Some (top.time, top.seq, top.value)
  end

let ready_count h =
  if h.size = 0 then 0
  else begin
    let tmin = h.data.(0).time in
    let c = ref 0 in
    for i = 0 to h.size - 1 do
      if h.data.(i).time = tmin then incr c
    done;
    !c
  end

let pop_kth h k =
  if h.size = 0 then None
  else begin
    let tmin = h.data.(0).time in
    (* Collect the ready set — every entry at the minimum time — as
       (seq, index) pairs, then select the k-th in seq order. The scan is
       O(size); exploration runs are small by construction. *)
    let ready = ref [] and count = ref 0 in
    for i = h.size - 1 downto 0 do
      if h.data.(i).time = tmin then begin
        ready := (h.data.(i).seq, i) :: !ready;
        incr count
      end
    done;
    let arr = Array.of_list !ready in
    Array.sort compare arr;
    let k = if k < 0 then 0 else if k >= !count then !count - 1 else k in
    let _, i = arr.(k) in
    let e = h.data.(i) in
    remove_index h i;
    Some (e.time, e.seq, e.value)
  end

let ready_view h =
  if h.size = 0 then [||]
  else begin
    let tmin = h.data.(0).time in
    let ready = ref [] in
    for i = h.size - 1 downto 0 do
      if h.data.(i).time = tmin then
        ready := (h.data.(i).seq, h.data.(i).label) :: !ready
    done;
    let arr = Array.of_list !ready in
    Array.sort compare arr;
    arr
  end

let clear h =
  Array.fill h.data 0 h.size h.vacant;
  h.size <- 0
