let reg_name reg = Printf.sprintf "r%d" (Reg.to_int reg)

let reg_or_zero reg_opt =
  match reg_opt with
  | Some reg -> reg_name reg
  | None -> "r0"

let target ~label_of index =
  match label_of index with
  | Some label -> label
  | None -> string_of_int index

(* One instruction in parser syntax; [label_of index] supplies the
   label for a control-flow target. *)
let instruction ~label_of (instr : Instruction.t) =
  let d = reg_or_zero instr.dest in
  let a = reg_or_zero instr.src1 in
  let b = reg_or_zero instr.src2 in
  let mnemonic = Opcode.mnemonic instr.op in
  match instr.op with
  | Add | Sub | And | Or | Xor | Sll | Srl | Sra | Slt | Mul | Div | Rem ->
      Printf.sprintf "%s %s, %s, %s" mnemonic d a b
  | Addi | Andi | Ori | Xori | Slti ->
      Printf.sprintf "%s %s, %s, %d" mnemonic d a instr.imm
  | Lui -> Printf.sprintf "lui %s, %d" d instr.imm
  | Lw | Lb -> Printf.sprintf "%s %s, %d(%s)" mnemonic d instr.imm a
  | Sw | Sb ->
      (* Stores carry the base in src1 and the value in src2. *)
      Printf.sprintf "%s %s, %d(%s)" mnemonic b instr.imm a
  | Beq | Bne | Blt | Bge ->
      Printf.sprintf "%s %s, %s, %s" mnemonic a b (target ~label_of instr.imm)
  | J -> Printf.sprintf "j %s" (target ~label_of instr.imm)
  | Jal -> Printf.sprintf "jal %s" (target ~label_of instr.imm)
  | Jr -> Printf.sprintf "jr %s" a
  | Jalr -> Printf.sprintf "jalr %s, %s" d a
  | Nop -> "nop"
  | Halt -> "halt"

let control_targets program =
  let targets = Hashtbl.create 16 in
  Array.iter
    (fun (instr : Instruction.t) ->
      match Opcode.branch_kind instr.op with
      | Some (Cond | Jump | Call) -> Hashtbl.replace targets instr.imm ()
      | Some (Ret | Indirect) | None -> ())
    program.Program.code;
  targets

let program (p : Program.t) =
  let targets = control_targets p in
  let label_of index =
    if Hashtbl.mem targets index then Some (Printf.sprintf "L%d" index)
    else None
  in
  let buffer = Buffer.create 1024 in
  if p.entry <> 0 then begin
    Hashtbl.replace targets p.entry ();
    Buffer.add_string buffer (Printf.sprintf ".entry L%d\n" p.entry)
  end;
  List.iter
    (fun (addr, value) ->
      Buffer.add_string buffer (Printf.sprintf ".word %d %d\n" addr value))
    p.data;
  Array.iteri
    (fun index instr ->
      if Hashtbl.mem targets index then
        Buffer.add_string buffer (Printf.sprintf "L%d:\n" index);
      Buffer.add_string buffer "    ";
      Buffer.add_string buffer (instruction ~label_of instr);
      Buffer.add_char buffer '\n')
    p.code;
  (* Targets beyond the last instruction (e.g. a branch to the end). *)
  let beyond = Array.length p.code in
  if Hashtbl.mem targets beyond then
    Buffer.add_string buffer (Printf.sprintf "L%d:\n" beyond);
  Buffer.contents buffer
