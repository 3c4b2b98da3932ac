(** Concrete syntax for the mini PGAS language.

    {v
    shared slots[4]
    shared out[1]

    slots[MINE] := MINE * MINE;
    barrier;
    if MINE == 0 then
      acc := 0;
      for i = 0 to PROCS - 1 do
        acc := acc + slots[i]
      done;
      out[0] := acc
    end
    v}

    Statements are separated by [;]. [if]/[then]/[else]/[end],
    [for]/[do]/[done], [while]/[do]/[done], [barrier], [skip],
    [compute e]. Assignments to a
    declared shared array are one-sided stores; [name\[i\] +>= e] is an
    atomic fetch-and-add; any other [x := e] is a private assignment.
    Expressions use [+ - * / % == <] with the usual precedence, [( )],
    [MINE] and [PROCS]. Comments run from [#] to end of line. *)

val parse : string -> (Ast.program, string) result
(** Parse a whole program; the error message carries a line number. *)
