(** Two-pass assembler EDSL.

    Programs are written as OCaml lists of statements; labels are plain
    strings resolved to absolute instruction indices in a second pass.

    {[
      let program =
        Asm.(assemble [
          label "loop";
          addi t0 t0 1;
          blt t0 t1 "loop";
          halt;
        ])
    ]} *)

type stmt

exception Unknown_label of string
exception Duplicate_label of string

(** {1 Labels and raw statements} *)

val label : string -> stmt

(** {1 ALU, register-register} *)

val add : Reg.t -> Reg.t -> Reg.t -> stmt
val sub : Reg.t -> Reg.t -> Reg.t -> stmt
val and_ : Reg.t -> Reg.t -> Reg.t -> stmt
val or_ : Reg.t -> Reg.t -> Reg.t -> stmt
val xor : Reg.t -> Reg.t -> Reg.t -> stmt
val sll : Reg.t -> Reg.t -> Reg.t -> stmt
val srl : Reg.t -> Reg.t -> Reg.t -> stmt
val sra : Reg.t -> Reg.t -> Reg.t -> stmt
val slt : Reg.t -> Reg.t -> Reg.t -> stmt
val mul : Reg.t -> Reg.t -> Reg.t -> stmt
val div : Reg.t -> Reg.t -> Reg.t -> stmt
val rem : Reg.t -> Reg.t -> Reg.t -> stmt

(** {1 ALU, immediate} — destination, source, immediate *)

val addi : Reg.t -> Reg.t -> int -> stmt
val andi : Reg.t -> Reg.t -> int -> stmt
val ori : Reg.t -> Reg.t -> int -> stmt
val xori : Reg.t -> Reg.t -> int -> stmt
val slti : Reg.t -> Reg.t -> int -> stmt
val lui : Reg.t -> int -> stmt
val li : Reg.t -> int -> stmt
(** Load immediate (pseudo-op, assembles to [addi dest r0 imm]). *)

val mv : Reg.t -> Reg.t -> stmt
(** Register move (pseudo-op, [add dest src r0]). *)

(** {1 Memory} — register, displacement, base *)

val lw : Reg.t -> int -> Reg.t -> stmt
val sw : Reg.t -> int -> Reg.t -> stmt
val lb : Reg.t -> int -> Reg.t -> stmt
val sb : Reg.t -> int -> Reg.t -> stmt

(** {1 Control flow} *)

val beq : Reg.t -> Reg.t -> string -> stmt
val bne : Reg.t -> Reg.t -> string -> stmt
val blt : Reg.t -> Reg.t -> string -> stmt
val bge : Reg.t -> Reg.t -> string -> stmt
val j : string -> stmt
val jal : string -> stmt
(** Call: links the return address into {!Reg.ra}. *)

val jr : Reg.t -> stmt
(** Indirect jump; [jr Reg.ra] is the conventional return. *)

val jalr : Reg.t -> Reg.t -> stmt
(** Indirect call: [jalr dest target]. *)

val nop : stmt
val halt : stmt

(** {1 Convenient register aliases} *)

val t0 : Reg.t
val t1 : Reg.t
val t2 : Reg.t
val t3 : Reg.t
val t4 : Reg.t
val t5 : Reg.t
val t6 : Reg.t
val t7 : Reg.t
val s0 : Reg.t
val s1 : Reg.t
val s2 : Reg.t
val s3 : Reg.t
val a0 : Reg.t
val a1 : Reg.t
val a2 : Reg.t
val v0 : Reg.t

(** {1 Assembly} *)

val assemble :
  ?entry:string -> ?data:(int * int) list -> stmt list -> Program.t
(** Resolve labels and produce a program image. [entry] defaults to the
    first instruction. Raises {!Unknown_label} for unresolved targets and
    {!Duplicate_label} for labels bound twice. *)
