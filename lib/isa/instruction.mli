(** Decoded instructions.

    After assembly every control-flow target is an absolute instruction
    index stored in [imm]; memory displacements and ALU immediates also
    live in [imm]. Instructions occupy {!bytes_per_instruction} bytes in
    the simulated address space (PISA uses 8-byte encodings), so the byte
    address of instruction [i] is [i * bytes_per_instruction]. *)

type t = {
  op : Opcode.t;
  dest : Reg.t option;  (** destination register, if any *)
  src1 : Reg.t option;  (** first source, if any *)
  src2 : Reg.t option;  (** second source, if any *)
  imm : int;            (** immediate / displacement / absolute target *)
}

val bytes_per_instruction : int
(** 8, as in SimpleScalar PISA. *)

val byte_address : int -> int
(** [byte_address index] is the simulated byte address of the instruction
    at [index]. *)
