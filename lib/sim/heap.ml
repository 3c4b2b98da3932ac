type 'a entry = { time : float; seq : int; label : int; value : 'a }

type 'a t = { mutable data : 'a entry array; mutable size : int }

let create () = { data = [||]; size = 0 }

let length h = h.size

let is_empty h = h.size = 0

let lt a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let grow h =
  let cap = Array.length h.data in
  let cap' = if cap = 0 then 16 else cap * 2 in
  let data' = Array.make cap' h.data.(0) in
  Array.blit h.data 0 data' 0 h.size;
  h.data <- data'

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if lt h.data.(i) h.data.(parent) then begin
      let tmp = h.data.(i) in
      h.data.(i) <- h.data.(parent);
      h.data.(parent) <- tmp;
      sift_up h parent
    end
  end

let rec sift_down h i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < h.size && lt h.data.(l) h.data.(!smallest) then smallest := l;
  if r < h.size && lt h.data.(r) h.data.(!smallest) then smallest := r;
  if !smallest <> i then begin
    let tmp = h.data.(i) in
    h.data.(i) <- h.data.(!smallest);
    h.data.(!smallest) <- tmp;
    sift_down h !smallest
  end

let add h ~time ~seq ?(label = Label.unknown) value =
  let entry = { time; seq; label; value } in
  if h.size = Array.length h.data then
    if h.size = 0 then h.data <- Array.make 16 entry else grow h;
  h.data.(h.size) <- entry;
  h.size <- h.size + 1;
  sift_up h (h.size - 1)

let pop h =
  if h.size = 0 then None
  else begin
    let top = h.data.(0) in
    h.size <- h.size - 1;
    if h.size > 0 then begin
      h.data.(0) <- h.data.(h.size);
      sift_down h 0
    end;
    Some (top.time, top.seq, top.value)
  end

(* Remove the entry at array index [i]: swap in the last element and
   restore the heap property in whichever direction it was broken. *)
let remove_index h i =
  h.size <- h.size - 1;
  if i < h.size then begin
    h.data.(i) <- h.data.(h.size);
    sift_down h i;
    sift_up h i
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

let clear h = h.size <- 0
