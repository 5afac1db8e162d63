type t = {
  op : Opcode.t;
  dest : Reg.t option;
  src1 : Reg.t option;
  src2 : Reg.t option;
  imm : int;
}

let bytes_per_instruction = 8
let byte_address index = index * bytes_per_instruction
