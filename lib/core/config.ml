type transport = Inline | Piggyback_txn | Explicit_txn

type clock_mode = Vector | Lamport_only

type granularity = Variable | Block of int | Word

type t = {
  use_write_clock : bool;
  transport : transport;
  clock_mode : clock_mode;
  granularity : granularity;
  record_trace : bool;
  trace_reads_from : [ `All_writers | `Last_writer ];
  lock_aware_clocks : bool;
  provenance_depth : int;
}

let default =
  {
    use_write_clock = true;
    transport = Piggyback_txn;
    clock_mode = Vector;
    granularity = Variable;
    record_trace = false;
    trace_reads_from = `All_writers;
    lock_aware_clocks = false;
    provenance_depth = 4;
  }

let transport_name = function
  | Inline -> "inline"
  | Piggyback_txn -> "piggyback"
  | Explicit_txn -> "explicit"

let granularity_name = function
  | Variable -> "var"
  | Block k -> Printf.sprintf "block%d" k
  | Word -> "word"

let validate t =
  (match t.granularity with
  | Block k when k < 1 ->
      invalid_arg "Config.validate: block size must be positive"
  | Variable | Block _ | Word -> ());
  if t.provenance_depth < 0 then
    invalid_arg "Config.validate: provenance_depth must be non-negative";
  t
