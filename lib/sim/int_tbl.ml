type 'a bucket =
  | Nil
  | Cons of { key : int; mutable value : 'a; mutable next : 'a bucket }

(* [buckets] has a power-of-two length and the table grows once it holds
   more entries than buckets. *)
type 'a t = { mutable buckets : 'a bucket array; mutable size : int }

let create size =
  let rec pow2 c = if c >= size then c else pow2 (2 * c) in
  { buckets = Array.make (pow2 8) Nil; size = 0 }

let length t = t.size

(* A multiplicative mix: the product's low bits depend only on the key's
   low bits, so its high half is folded down before masking. Without the
   fold every granule key [(offset lsl 21) lor 1] would share a
   bucket. *)
let index buckets key =
  let h = key * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 32)) land (Array.length buckets - 1)

let rec find_in key = function
  | Nil -> raise_notrace Not_found
  | Cons c -> if c.key = key then c.value else find_in key c.next

let find t key = find_in key (Array.unsafe_get t.buckets (index t.buckets key))

let rec replace_in key value = function
  | Nil -> false
  | Cons c ->
      if c.key = key then begin
        c.value <- value;
        true
      end
      else replace_in key value c.next

(* Relinks the existing cells into a bucket array twice as long. *)
let grow t =
  let buckets = Array.make (2 * Array.length t.buckets) Nil in
  let rec relink = function
    | Nil -> ()
    | Cons c as cell ->
        let next = c.next in
        let i = index buckets c.key in
        c.next <- Array.unsafe_get buckets i;
        Array.unsafe_set buckets i cell;
        relink next
  in
  Array.iter relink t.buckets;
  t.buckets <- buckets

let replace t key value =
  let i = index t.buckets key in
  let head = Array.unsafe_get t.buckets i in
  if not (replace_in key value head) then begin
    Array.unsafe_set t.buckets i (Cons { key; value; next = head });
    t.size <- t.size + 1;
    if t.size > Array.length t.buckets then grow t
  end

(* Unlinks the cell after [prev] whose key is [key], if any. *)
let rec remove_after t key prev =
  match prev with
  | Nil -> ()
  | Cons p -> (
      match p.next with
      | Nil -> ()
      | Cons c when c.key = key ->
          p.next <- c.next;
          t.size <- t.size - 1
      | next -> remove_after t key next)

let remove t key =
  let i = index t.buckets key in
  match Array.unsafe_get t.buckets i with
  | Nil -> ()
  | Cons c when c.key = key ->
      Array.unsafe_set t.buckets i c.next;
      t.size <- t.size - 1
  | head -> remove_after t key head

let fold f t init =
  let rec fold_bucket acc = function
    | Nil -> acc
    | Cons c -> fold_bucket (f c.key c.value acc) c.next
  in
  Array.fold_left fold_bucket init t.buckets

let clear t =
  if t.size > 0 then begin
    Array.fill t.buckets 0 (Array.length t.buckets) Nil;
    t.size <- 0
  end
