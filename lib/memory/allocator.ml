type t = {
  capacity : int;
  mutable next : int;
  names : (string, int * int) Hashtbl.t;
  mutable order : (string * int * int) list; (* reversed allocation order *)
}

exception Exhausted of { capacity : int; used : int; want : int }

let () =
  Printexc.register_printer (function
    | Exhausted { capacity; used; want } ->
        Some
          (Printf.sprintf
             "Allocator.alloc: out of memory (%d/%d words used, want %d)" used
             capacity want)
    | _ -> None)

let create ~words =
  if words < 0 then invalid_arg "Allocator.create: negative capacity";
  { capacity = words; next = 0; names = Hashtbl.create 16; order = [] }

let capacity a = a.capacity

let allocated a = a.next

let alloc a ?name ~len () =
  if len < 1 then invalid_arg "Allocator.alloc: len must be >= 1";
  if a.next + len > a.capacity then
    raise (Exhausted { capacity = a.capacity; used = a.next; want = len });
  (match name with
  | Some n when Hashtbl.mem a.names n ->
      failwith (Printf.sprintf "Allocator.alloc: name %S already bound" n)
  | _ -> ());
  let offset = a.next in
  a.next <- a.next + len;
  (match name with
  | Some n ->
      Hashtbl.add a.names n (offset, len);
      a.order <- (n, offset, len) :: a.order
  | None -> ());
  offset

let lookup a name = Hashtbl.find_opt a.names name

let symbols a = List.rev a.order

let reset a =
  a.next <- 0;
  Hashtbl.reset a.names;
  a.order <- []
