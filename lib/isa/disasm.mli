(** Disassembler: programs back to the textual syntax of {!Parser}.

    [Parser.parse (Disasm.program p)] reproduces [p]'s instruction array
    exactly (branch targets become generated labels; the entry point and
    initial data are emitted as [.entry]/[.word] directives) for any
    program built through {!Asm} or {!Parser} — a property the test
    suite checks. *)

val program : Program.t -> string
(** Full listing with generated [L<n>] labels at every control-flow
    target, plus [.entry] and [.word] directives. *)
