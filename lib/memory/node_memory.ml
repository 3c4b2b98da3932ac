type t = {
  pid : int;
  private_seg : Segment.t;
  public_seg : Segment.t;
  private_alloc : Allocator.t;
  public_alloc : Allocator.t;
  locks : Lock_table.t;
}

let default_words = 4096

let create ~pid ?(private_words = default_words) ?(public_words = default_words)
    () =
  if pid < 0 then invalid_arg "Node_memory.create: negative pid";
  {
    pid;
    private_seg = Segment.create ~words:private_words;
    public_seg = Segment.create ~words:public_words;
    private_alloc = Allocator.create ~words:private_words;
    public_alloc = Allocator.create ~words:public_words;
    locks = Lock_table.create ();
  }

(* Arena reuse: zero only the allocated prefix of each segment (the rest
   never left its [create]-time zero state), then forget allocations and
   locks. Cost is proportional to live data, not capacity. *)
let reset t =
  Segment.fill t.private_seg ~offset:0
    ~len:(Allocator.allocated t.private_alloc) 0;
  Segment.fill t.public_seg ~offset:0
    ~len:(Allocator.allocated t.public_alloc) 0;
  Allocator.reset t.private_alloc;
  Allocator.reset t.public_alloc;
  Lock_table.reset t.locks

let segment t = function
  | Addr.Private -> t.private_seg
  | Addr.Public -> t.public_seg

let allocator t = function
  | Addr.Private -> t.private_alloc
  | Addr.Public -> t.public_alloc

let locks t = t.locks

let alloc t ~space ?name ~len () =
  let offset = Allocator.alloc (allocator t space) ?name ~len () in
  Addr.region ~pid:t.pid ~space ~offset ~len

let check_owner t (r : Addr.region) op =
  if r.base.pid <> t.pid then
    invalid_arg
      (Printf.sprintf "Node_memory.%s: region %s is not on P%d" op
         (Addr.to_string r) t.pid)

let read t (r : Addr.region) =
  check_owner t r "read";
  Segment.read_block (segment t r.base.space) ~offset:r.base.offset ~len:r.len

let write t (r : Addr.region) data =
  check_owner t r "write";
  if Array.length data <> r.len then
    invalid_arg "Node_memory.write: data length does not match region";
  Segment.write_block (segment t r.base.space) ~offset:r.base.offset data

let memory_map t =
  let tagged space =
    List.map
      (fun (name, offset, len) -> (space, name, offset, len))
      (Allocator.symbols (allocator t space))
  in
  tagged Addr.Private @ tagged Addr.Public
