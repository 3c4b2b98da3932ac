(** Global addressing: the [(processor_name, local_address)] couples of §3.1.

    A {!global} names one word in some process's memory; a {!region} names a
    contiguous run of words. The [space] tag distinguishes the two memory
    areas of the model (Figure 1): only [Public] addresses are remotely
    accessible. *)

type space = Private | Public

type global = { pid : int; space : space; offset : int }
(** One word of process [pid]'s [space] memory at [offset]. *)

type region = { base : global; len : int }
(** [len] consecutive words starting at [base]. [len >= 1]. *)

val global : pid:int -> space:space -> offset:int -> global
(** Smart constructor; raises [Invalid_argument] on negative [pid] or
    [offset]. *)

val region : pid:int -> space:space -> offset:int -> len:int -> region
(** Smart constructor; additionally requires [len >= 1]. *)

val region_of_global : global -> len:int -> region

val last_offset : region -> int
(** Offset of the region's final word. *)

val overlap : region -> region -> bool
(** True when the two regions share at least one word of the same process
    and space — the conflict test used by locks and by the detector's
    granularity logic. *)

val is_public : region -> bool

val space_name : space -> string

val pp_region : Format.formatter -> region -> unit
(** Prints as [P2.pub\[16..23\]]. *)

val to_string : region -> string
