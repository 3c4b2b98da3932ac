type t = int array

let create ~words =
  if words < 0 then invalid_arg "Segment.create: negative size";
  Array.make words 0


let check t ~offset ~len op =
  if offset < 0 || len < 0 || offset + len > Array.length t then
    invalid_arg
      (Printf.sprintf "Segment.%s: [%d..+%d) outside segment of %d words" op
         offset len (Array.length t))

let read t ~offset =
  check t ~offset ~len:1 "read";
  t.(offset)

let write t ~offset v =
  check t ~offset ~len:1 "write";
  t.(offset) <- v

let read_block t ~offset ~len =
  check t ~offset ~len "read_block";
  Array.sub t offset len

(* A loop, not [Array.blit]: a segment soon lives in the major heap,
   where the runtime's blit runs the write barrier on every word; an
   [int array] store needs none. *)
let write_block t ~offset (data : int array) =
  check t ~offset ~len:(Array.length data) "write_block";
  for i = 0 to Array.length data - 1 do
    Array.unsafe_set t (offset + i) (Array.unsafe_get data i)
  done

let fill t ~offset ~len v =
  check t ~offset ~len "fill";
  Array.fill t offset len v
