type t = Nic_atomic | Relaxed | Eventual | Seq_consistent

type hooks = {
  atomic_puts : bool;
  get_delays_put : bool;
  put_reorder_granules : bool;
  read_acquires_writes : bool;
  rmw_acquires_order : bool;
  write_acquires_order : bool;
}

let hooks = function
  | Nic_atomic ->
      {
        atomic_puts = true;
        get_delays_put = true;
        put_reorder_granules = false;
        read_acquires_writes = true;
        rmw_acquires_order = true;
        write_acquires_order = false;
      }
  | Relaxed ->
      {
        atomic_puts = false;
        get_delays_put = false;
        put_reorder_granules = false;
        read_acquires_writes = true;
        rmw_acquires_order = false;
        write_acquires_order = false;
      }
  | Eventual ->
      {
        atomic_puts = false;
        get_delays_put = false;
        put_reorder_granules = true;
        read_acquires_writes = false;
        rmw_acquires_order = false;
        write_acquires_order = false;
      }
  | Seq_consistent ->
      {
        atomic_puts = true;
        get_delays_put = true;
        put_reorder_granules = false;
        read_acquires_writes = true;
        rmw_acquires_order = true;
        write_acquires_order = true;
      }

let name = function
  | Nic_atomic -> "nic_atomic"
  | Relaxed -> "relaxed"
  | Eventual -> "eventual"
  | Seq_consistent -> "seq_consistent"

let default = Nic_atomic

let of_name s =
  match String.lowercase_ascii s with
  | "nic_atomic" | "nic-atomic" | "nic" -> Ok Nic_atomic
  | "relaxed" -> Ok Relaxed
  | "eventual" -> Ok Eventual
  | "seq_consistent" | "seq-consistent" | "sc" -> Ok Seq_consistent
  | _ ->
      Error
        (Printf.sprintf
           "unknown memory model %S (expected nic_atomic, relaxed, eventual \
            or seq_consistent)"
           s)
