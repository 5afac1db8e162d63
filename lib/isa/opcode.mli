(** Opcodes and operation classes of the PISA-like ISA.

    The instruction set is a compact RISC subset in the spirit of
    SimpleScalar's PISA: three-operand integer ALU operations, immediates,
    multiply/divide with long latencies, word/byte loads and stores, and
    the usual control-flow repertoire (conditional branches, direct and
    indirect jumps, call and return). *)

type t =
  | Add | Sub | And | Or | Xor | Sll | Srl | Sra | Slt
  | Addi | Andi | Ori | Xori | Slti | Lui
  | Mul | Div | Rem
  | Lw | Sw | Lb | Sb
  | Beq | Bne | Blt | Bge
  | J | Jal | Jr | Jalr
  | Nop | Halt

(** Functional-unit routing class, mirroring SimpleScalar's op classes. *)
type op_class = Int_alu | Int_mult | Int_div | Load | Store | Ctrl

(** Control-flow taxonomy used by the branch-predictor unit. *)
type branch_kind = Cond | Jump | Call | Ret | Indirect

val op_class : t -> op_class
(** FU class of an opcode. Control-flow ops are [Ctrl] (they execute on an
    ALU); [Nop] and [Halt] are [Int_alu]. *)

val branch_kind : t -> branch_kind option
(** [branch_kind op] is [Some k] for control-flow opcodes, [None]
    otherwise. [Jalr] is classified [Indirect] (an indirect call), [Jr] as
    [Ret] when its source is the return-address register — that refinement
    is made by the interpreter, here [Jr] maps to [Indirect]. *)

val is_cond_kind : branch_kind -> bool
(** Caml_equal-free [kind = Cond] for the engine's commit path. *)

val mnemonic : t -> string
val all : t list
(** Every opcode, for exhaustive enumeration in tests. *)
