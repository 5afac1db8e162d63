type t = {
  op : Opcode.t;
  dest : Reg.t option;
  src1 : Reg.t option;
  src2 : Reg.t option;
  imm : int;
}

let bytes_per_instruction = 8
let byte_address index = index * bytes_per_instruction

let make ?dest ?src1 ?src2 ?(imm = 0) op = { op; dest; src1; src2; imm }

let nop = make Opcode.Nop
let halt = make Opcode.Halt

let pp ppf instr =
  let reg_opt ppf = function
    | Some r -> Format.fprintf ppf " %a" Reg.pp r
    | None -> ()
  in
  Format.fprintf ppf "%a%a%a%a imm=%d" Opcode.pp instr.op reg_opt instr.dest
    reg_opt instr.src1 reg_opt instr.src2 instr.imm
