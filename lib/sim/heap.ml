(* The heap orders four parallel arrays indexed by heap position: a
   flat float array of times, and the seqs, labels and slots as
   immediate ints. The values live apart, in [values], indexed by slot:
   [add] writes a value once into a free slot and its removal clears
   that slot once, so a sift moves only floats and immediates and runs
   no write barrier. The free slots are a stack, [free.(0 ..
   capacity - size - 1)]. A slot not holding a live value holds
   [dummy], never a popped or cleared value, so the heap keeps no dead
   value reachable. *)
type 'a t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable labels : int array;
  mutable slots : int array;
  mutable values : 'a array;
  mutable free : int array;
  mutable size : int;
  dummy : 'a;
}

let create ~dummy =
  {
    times = [||];
    seqs = [||];
    labels = [||];
    slots = [||];
    values = [||];
    free = [||];
    size = 0;
    dummy;
  }

let is_empty h = h.size = 0

(* Called only when every slot is taken, so the free stack is empty and
   becomes the new slots, lowest on top. *)
let grow h =
  let cap = Array.length h.times in
  let cap' = if cap = 0 then 16 else cap * 2 in
  let times = Array.make cap' 0. and seqs = Array.make cap' 0 in
  let labels = Array.make cap' Label.unknown and slots = Array.make cap' 0 in
  let values = Array.make cap' h.dummy in
  Array.blit h.times 0 times 0 h.size;
  Array.blit h.seqs 0 seqs 0 h.size;
  Array.blit h.labels 0 labels 0 h.size;
  Array.blit h.slots 0 slots 0 h.size;
  Array.blit h.values 0 values 0 cap;
  h.times <- times;
  h.seqs <- seqs;
  h.labels <- labels;
  h.slots <- slots;
  h.values <- values;
  h.free <- Array.init cap' (fun i -> cap' - 1 - i)

let set h i time seq label slot =
  Array.unsafe_set h.times i time;
  Array.unsafe_set h.seqs i seq;
  Array.unsafe_set h.labels i label;
  Array.unsafe_set h.slots i slot

(* Copies position [src] to position [dst] field by field: the time goes
   from one flat float array to the same array, never through a box. *)
let move h ~src ~dst =
  Array.unsafe_set h.times dst (Array.unsafe_get h.times src);
  Array.unsafe_set h.seqs dst (Array.unsafe_get h.seqs src);
  Array.unsafe_set h.labels dst (Array.unsafe_get h.labels src);
  Array.unsafe_set h.slots dst (Array.unsafe_get h.slots src)

(* Position [a] sorts before position [b] in [(time, seq)] order. *)
let slot_lt h a b =
  let ta = Array.unsafe_get h.times a and tb = Array.unsafe_get h.times b in
  ta < tb
  || (ta = tb && Array.unsafe_get h.seqs a < Array.unsafe_get h.seqs b)

(* Both sifts move a hole rather than swap: the placed entry is written
   once, where it lands, and each level passed costs one move. Every
   comparison is the one a swapping sift makes, so entries land where it
   put them. [sift_up] takes the entry's fields; [add] passes its own
   arguments, so no float is boxed. *)
let sift_up h i time seq label slot =
  let i = ref i and placed = ref false in
  while not !placed do
    if !i = 0 then placed := true
    else begin
      let parent = (!i - 1) / 2 in
      let tp = Array.unsafe_get h.times parent in
      if time < tp || (time = tp && seq < Array.unsafe_get h.seqs parent)
      then begin
        move h ~src:parent ~dst:!i;
        i := parent
      end
      else placed := true
    end
  done;
  set h !i time seq label slot

(* [sift_down] places the entry held at position [src], one past the
   live range that no move of the sift writes: it reads the entry's time
   from the array at each level instead of carrying a float. This is
   the loop every pop runs, so it works on the arrays directly. *)
let sift_down h i ~src =
  let times = h.times and seqs = h.seqs and size = h.size in
  let time = Array.unsafe_get times src and seq = Array.unsafe_get seqs src in
  let i = ref i and placed = ref false in
  while not !placed do
    let l = (2 * !i) + 1 in
    if l >= size then placed := true
    else begin
      let r = l + 1 in
      let c =
        if r < size then begin
          let tr = Array.unsafe_get times r and tl = Array.unsafe_get times l in
          if
            tr < tl
            || (tr = tl && Array.unsafe_get seqs r < Array.unsafe_get seqs l)
          then r
          else l
        end
        else l
      in
      let tc = Array.unsafe_get times c in
      if tc < time || (tc = time && Array.unsafe_get seqs c < seq) then begin
        move h ~src:c ~dst:!i;
        i := c
      end
      else placed := true
    end
  done;
  move h ~src ~dst:!i

let add h ~time ~seq ~label value =
  if h.size = Array.length h.times then grow h;
  let slot = Array.unsafe_get h.free (Array.length h.times - h.size - 1) in
  Array.unsafe_set h.values slot value;
  h.size <- h.size + 1;
  sift_up h (h.size - 1) time seq label slot

(* Remove the entry at position [i] and return its value: its slot is
   cleared and goes back on the free stack, and the last entry fills the
   hole, sifted whichever way the heap property needs. *)
let remove_index h i =
  let slot = Array.unsafe_get h.slots i in
  let v = Array.unsafe_get h.values slot in
  Array.unsafe_set h.values slot h.dummy;
  let last = h.size - 1 in
  h.size <- last;
  Array.unsafe_set h.free (Array.length h.times - last - 1) slot;
  if i < last then
    if i > 0 && slot_lt h last ((i - 1) / 2) then
      sift_up h i
        (Array.unsafe_get h.times last)
        (Array.unsafe_get h.seqs last)
        (Array.unsafe_get h.labels last)
        (Array.unsafe_get h.slots last)
    else sift_down h i ~src:last;
  v

let min_time h =
  if h.size = 0 then invalid_arg "Heap.min_time: empty heap";
  Array.unsafe_get h.times 0

let min_at h time = h.size > 0 && Array.unsafe_get h.times 0 = time

let pop_min h =
  if h.size = 0 then invalid_arg "Heap.pop_min: empty heap";
  remove_index h 0

let pop h =
  if h.size = 0 then None
  else begin
    let time = h.times.(0) and seq = h.seqs.(0) in
    Some (time, seq, pop_min h)
  end

let ready_count h =
  if h.size = 0 then 0
  else begin
    let tmin = h.times.(0) in
    let c = ref 0 in
    for i = 0 to h.size - 1 do
      if h.times.(i) = tmin then incr c
    done;
    !c
  end

let pop_kth h k =
  if h.size = 0 then None
  else begin
    let tmin = h.times.(0) in
    (* Collect the ready set — every entry at the minimum time — as
       (seq, position) pairs, then select the k-th in seq order. The
       scan is O(size); exploration runs are small by construction. *)
    let ready = ref [] and count = ref 0 in
    for i = h.size - 1 downto 0 do
      if h.times.(i) = tmin then begin
        ready := (h.seqs.(i), i) :: !ready;
        incr count
      end
    done;
    let arr = Array.of_list !ready in
    Array.sort compare arr;
    let k = if k < 0 then 0 else if k >= !count then !count - 1 else k in
    let _, i = arr.(k) in
    let time = h.times.(i) and seq = h.seqs.(i) in
    Some (time, seq, remove_index h i)
  end

let ready_view h =
  if h.size = 0 then [||]
  else begin
    let tmin = h.times.(0) in
    let ready = ref [] in
    for i = h.size - 1 downto 0 do
      if h.times.(i) = tmin then ready := (h.seqs.(i), h.labels.(i)) :: !ready
    done;
    let arr = Array.of_list !ready in
    Array.sort compare arr;
    arr
  end

(* Each live slot is cleared and pushed back, so the free stack again
   holds every slot. *)
let clear h =
  let cap = Array.length h.times in
  for i = 0 to h.size - 1 do
    let slot = Array.unsafe_get h.slots i in
    Array.unsafe_set h.values slot h.dummy;
    Array.unsafe_set h.free (cap - h.size + i) slot
  done;
  h.size <- 0
