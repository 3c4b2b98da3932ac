module Machine = Dsm_rdma.Machine
module Detector = Dsm_core.Detector

type t = Plain of Machine.t | Checked of Detector.t

let plain m = Plain m

let checked d = Checked d

let machine = function Plain m -> m | Checked d -> Detector.machine d

let detector = function Plain _ -> None | Checked d -> Some d

let put t p ~src ~dst =
  match t with
  | Plain _ -> Machine.put p ~src ~dst ()
  | Checked d -> Detector.put d p ~src ~dst

let get t p ~src ~dst =
  match t with
  | Plain _ -> Machine.get p ~src ~dst ()
  | Checked d -> Detector.get d p ~src ~dst

let put_batch t p ~pairs =
  match t with
  | Plain _ -> Machine.put_batch p (Machine.check_batch p Put ~pairs) ()
  | Checked d -> Detector.put_batch d p ~pairs

let get_batch t p ~pairs =
  match t with
  | Plain _ -> Machine.get_batch p (Machine.check_batch p Get ~pairs) ()
  | Checked d -> Detector.get_batch d p ~pairs

let fetch_add t p ~target ~delta =
  match t with
  | Plain _ -> Machine.fetch_add p ~target ~delta ()
  | Checked d -> Detector.fetch_add d p ~target ~delta

let cas t p ~target ~expected ~desired =
  match t with
  | Plain _ -> Machine.cas p ~target ~expected ~desired ()
  | Checked d -> Detector.cas d p ~target ~expected ~desired

(* An atomic read is a fetch_add of zero: it rides the NIC's RMW path,
   so it synchronizes with other RMWs on the word instead of racing
   with them — the acquire half of a release/acquire flag. *)
let atomic_read t p ~target = fetch_add t p ~target ~delta:0

let accumulate t p ~src ~dst ~aop =
  match t with
  | Plain _ -> Machine.accumulate p ~src ~dst ~aop ()
  | Checked d -> Detector.accumulate d p ~src ~dst ~aop

type lock_handle =
  | Plain_lock of Machine.token
  | Checked_lock of Detector.lock_handle

let lock t p r =
  match t with
  | Plain _ -> Plain_lock (Machine.lock p r)
  | Checked d -> Checked_lock (Detector.lock d p r)

let unlock t p h =
  match (t, h) with
  | Plain _, Plain_lock tok -> Machine.unlock p tok
  | Checked d, Checked_lock h -> Detector.unlock d p h
  | Plain _, Checked_lock _ | Checked _, Plain_lock _ ->
      invalid_arg "Env.unlock: handle from a different environment"

let register t r =
  match t with Plain _ -> () | Checked d -> Detector.register d r
