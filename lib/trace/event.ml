type kind = Read | Write | Atomic_update

type access = {
  id : int;
  time : float;
  pid : int;
  kind : kind;
  target : Dsm_memory.Addr.region;
}

type sync =
  | Lock_acquire of { id : int; time : float; pid : int; lock : string }
  | Lock_release of { id : int; time : float; pid : int; lock : string }
  | Barrier_enter of { id : int; time : float; pid : int; generation : int }
  | Barrier_exit of { id : int; time : float; pid : int; generation : int }
  | Rmw_sync of {
      id : int;
      time : float;
      pid : int;
      target : Dsm_memory.Addr.region;
    }

type t = Access of access | Sync of sync

let id = function
  | Access a -> a.id
  | Sync
      ( Lock_acquire { id; _ }
      | Lock_release { id; _ }
      | Barrier_enter { id; _ }
      | Barrier_exit { id; _ }
      | Rmw_sync { id; _ } ) ->
      id

let time = function
  | Access a -> a.time
  | Sync
      ( Lock_acquire { time; _ }
      | Lock_release { time; _ }
      | Barrier_enter { time; _ }
      | Barrier_exit { time; _ }
      | Rmw_sync { time; _ } ) ->
      time

let pid = function
  | Access a -> a.pid
  | Sync
      ( Lock_acquire { pid; _ }
      | Lock_release { pid; _ }
      | Barrier_enter { pid; _ }
      | Barrier_exit { pid; _ }
      | Rmw_sync { pid; _ } ) ->
      pid

let access_opt = function Access a -> Some a | Sync _ -> None

let conflict a b =
  let kinds_conflict =
    match (a.kind, b.kind) with
    | Read, Read -> false
    | Atomic_update, Atomic_update -> false (* NIC-serialized: synchronized *)
    | (Write | Atomic_update), _ | _, (Write | Atomic_update) -> true
  in
  a.pid <> b.pid && kinds_conflict && Dsm_memory.Addr.overlap a.target b.target

let kind_name = function
  | Read -> "read"
  | Write -> "write"
  | Atomic_update -> "atomic"

let pp ppf = function
  | Access a ->
      Format.fprintf ppf "#%d t=%.2f P%d %s %a" a.id a.time a.pid
        (kind_name a.kind) Dsm_memory.Addr.pp_region a.target
  | Sync (Lock_acquire { id; time; pid; lock }) ->
      Format.fprintf ppf "#%d t=%.2f P%d acquire %s" id time pid lock
  | Sync (Lock_release { id; time; pid; lock }) ->
      Format.fprintf ppf "#%d t=%.2f P%d release %s" id time pid lock
  | Sync (Barrier_enter { id; time; pid; generation }) ->
      Format.fprintf ppf "#%d t=%.2f P%d barrier-enter(%d)" id time pid
        generation
  | Sync (Barrier_exit { id; time; pid; generation }) ->
      Format.fprintf ppf "#%d t=%.2f P%d barrier-exit(%d)" id time pid
        generation
  | Sync (Rmw_sync { id; time; pid; target }) ->
      Format.fprintf ppf "#%d t=%.2f P%d rmw-sync %a" id time pid
        Dsm_memory.Addr.pp_region target
