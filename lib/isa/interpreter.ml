type control = {
  kind : Opcode.branch_kind;
  taken : bool;
  target : int;
}

type observation = {
  index : int;
  instr : Instruction.t;
  effective_address : int option;
  control : control option;
}

type outcome = Stepped of observation | Halted_

let src m reg_opt =
  match reg_opt with
  | Some reg -> Machine.read_reg m reg
  | None -> 0

let write m reg_opt value =
  match reg_opt with
  | Some reg -> Machine.write_reg m reg value
  | None -> ()

(* Shift amounts use the low 5 bits of the operand, as on MIPS. *)
let shift_amount value = value land 31

let alu_result (op : Opcode.t) a b imm =
  match op with
  | Add -> a + b
  | Sub -> a - b
  | And -> a land b
  | Or -> a lor b
  | Xor -> a lxor b
  | Sll -> a lsl shift_amount b
  | Srl -> (a land 0xffff_ffff) lsr shift_amount b
  | Sra -> a asr shift_amount b
  | Slt -> if a < b then 1 else 0
  | Addi -> a + imm
  | Andi -> a land imm
  | Ori -> a lor imm
  | Xori -> a lxor imm
  | Slti -> if a < imm then 1 else 0
  | Lui -> imm lsl 16
  | Mul -> a * b
  | Div -> if b = 0 then 0 else a / b
  | Rem -> if b = 0 then 0 else a mod b
  | Nop -> 0
  | Lw | Sw | Lb | Sb | Beq | Bne | Blt | Bge
  | J | Jal | Jr | Jalr | Halt ->
      assert false

(* The tails of [step], as top-level functions rather than closures
   built on every step: on the correct path the only allocation left is
   the outcome. *)
let stepped m index instr next_index effective_address control =
  Machine.set_pc m next_index;
  Stepped { index; instr; effective_address; control }

let access m index instr addr =
  stepped m index instr (index + 1) (Some addr) None

let branch m index instr kind taken target =
  let next_index = if taken then target else index + 1 in
  stepped m index instr next_index None (Some { kind; taken; target })

let step m (program : Program.t) =
  if Machine.halted m then Halted_
  else
    let index = Machine.pc m in
    if index < 0 || index >= Array.length program.code then begin
      Machine.set_halted m true;
      Halted_
    end
    else
      let instr = program.code.(index) in
      let fallthrough = index + 1 in
      let a = src m instr.Instruction.src1
      and b = src m instr.Instruction.src2 in
      match instr.op with
      | Add | Sub | And | Or | Xor | Sll | Srl | Sra | Slt
      | Addi | Andi | Ori | Xori | Slti | Lui | Mul | Div | Rem | Nop ->
          write m instr.dest (alu_result instr.op a b instr.imm);
          stepped m index instr fallthrough None None
      | Halt ->
          Machine.set_halted m true;
          Halted_
      | Lw ->
          let addr = a + instr.imm in
          write m instr.dest (Machine.read_word m addr);
          access m index instr addr
      | Lb ->
          let addr = a + instr.imm in
          write m instr.dest (Machine.read_byte m addr);
          access m index instr addr
      | Sw ->
          let addr = a + instr.imm in
          Machine.write_word m addr b;
          access m index instr addr
      | Sb ->
          let addr = a + instr.imm in
          Machine.write_byte m addr b;
          access m index instr addr
      | Beq -> branch m index instr Cond (a = b) instr.imm
      | Bne -> branch m index instr Cond (a <> b) instr.imm
      | Blt -> branch m index instr Cond (a < b) instr.imm
      | Bge -> branch m index instr Cond (a >= b) instr.imm
      | J -> branch m index instr Jump true instr.imm
      | Jal ->
          write m instr.dest fallthrough;
          branch m index instr Call true instr.imm
      | Jr ->
          let kind : Opcode.branch_kind =
            match instr.src1 with
            | Some reg when Reg.equal reg Reg.ra -> Ret
            | Some _ | None -> Indirect
          in
          branch m index instr kind true a
      | Jalr ->
          write m instr.dest fallthrough;
          branch m index instr Indirect true a

let run ?(max_steps = 10_000_000) m program =
  let rec loop executed =
    if executed >= max_steps then executed
    else
      match step m program with
      | Halted_ -> executed
      | Stepped _ -> loop (executed + 1)
  in
  loop 0
