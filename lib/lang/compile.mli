(** The §5.2 pre-compiler: lowering with optional wrapper insertion.

    "Our race condition detection algorithm can be implemented ... in the
    pre-compiler, as wrappers around remote data accesses." Lowering
    with [~instrument:true] tags every remote access [Checked]; with
    [~instrument:false] it leaves them [Raw]. The program is validated
    first, as a compiler would. *)

val lower_exn : instrument:bool -> Ast.program -> Ir.program
(** Raises [Invalid_argument] with the validation message. *)

val load : instrument:bool -> string -> (Ir.program, string) result
(** Read, parse and lower the program in a file: the one [.dsm]
    loader, behind [dsmcheck run FILE] and the explorer's [prog:FILE]
    scenarios. [Error] is the parse or validation message after the
    path; raises [Sys_error] when the file cannot be read. *)
