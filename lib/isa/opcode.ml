type t =
  | Add | Sub | And | Or | Xor | Sll | Srl | Sra | Slt
  | Addi | Andi | Ori | Xori | Slti | Lui
  | Mul | Div | Rem
  | Lw | Sw | Lb | Sb
  | Beq | Bne | Blt | Bge
  | J | Jal | Jr | Jalr
  | Nop | Halt

type op_class = Int_alu | Int_mult | Int_div | Load | Store | Ctrl

type branch_kind = Cond | Jump | Call | Ret | Indirect

let op_class = function
  | Add | Sub | And | Or | Xor | Sll | Srl | Sra | Slt
  | Addi | Andi | Ori | Xori | Slti | Lui | Nop | Halt -> Int_alu
  | Mul -> Int_mult
  | Div | Rem -> Int_div
  | Lw | Lb -> Load
  | Sw | Sb -> Store
  | Beq | Bne | Blt | Bge | J | Jal | Jr | Jalr -> Ctrl

let branch_kind = function
  | Beq | Bne | Blt | Bge -> Some Cond
  | J -> Some Jump
  | Jal -> Some Call
  | Jr -> Some Ret
  | Jalr -> Some Indirect
  | Add | Sub | And | Or | Xor | Sll | Srl | Sra | Slt
  | Addi | Andi | Ori | Xori | Slti | Lui
  | Mul | Div | Rem | Lw | Sw | Lb | Sb | Nop | Halt -> None

(* A match, not [= Cond]: consulted at commit for every branch, where
   polymorphic equality on the variant would call caml_equal. *)
let is_cond_kind = function
  | Cond -> true
  | Jump | Call | Ret | Indirect -> false

let mnemonic = function
  | Add -> "add" | Sub -> "sub" | And -> "and" | Or -> "or" | Xor -> "xor"
  | Sll -> "sll" | Srl -> "srl" | Sra -> "sra" | Slt -> "slt"
  | Addi -> "addi" | Andi -> "andi" | Ori -> "ori" | Xori -> "xori"
  | Slti -> "slti" | Lui -> "lui"
  | Mul -> "mul" | Div -> "div" | Rem -> "rem"
  | Lw -> "lw" | Sw -> "sw" | Lb -> "lb" | Sb -> "sb"
  | Beq -> "beq" | Bne -> "bne" | Blt -> "blt" | Bge -> "bge"
  | J -> "j" | Jal -> "jal" | Jr -> "jr" | Jalr -> "jalr"
  | Nop -> "nop" | Halt -> "halt"

let all =
  [ Add; Sub; And; Or; Xor; Sll; Srl; Sra; Slt;
    Addi; Andi; Ori; Xori; Slti; Lui;
    Mul; Div; Rem;
    Lw; Sw; Lb; Sb;
    Beq; Bne; Blt; Bge;
    J; Jal; Jr; Jalr;
    Nop; Halt ]
