(* Record -> RV32 instruction-trace encoder: writes the correct path of
   an encoded trace as the `riscv` adapter profile
   (<PC> <INSN> [mem <ADDR>]), so the adapt-riscv workload feeds the
   adapter the same program the other workloads simulate.

   Encoding per record class: Alu/Mult/Divide as add/mul/div (R-type),
   loads and stores as lw/sw with a `mem` operand, conditional branches
   as beq (B-type), jumps and calls as jal x0/jal ra (J-type), returns
   as jalr x0,0(ra) and other indirect jumps as jalr x0,0(rs1) with rs1
   never a link register. Byte PCs are instruction index * 4. *)

module Record = Resim_trace.Record

exception Unencodable of string

let fail pc fmt =
  Printf.ksprintf (fun why -> raise (Unencodable (Printf.sprintf "pc %d: %s" pc why))) fmt

let reg pc what r =
  if r < 0 || r > 31 then fail pc "%s register %d outside x0..x31" what r else r

let r_type ~funct7 ~funct3 ~rd ~rs1 ~rs2 =
  (funct7 lsl 25) lor (rs2 lsl 20) lor (rs1 lsl 15) lor (funct3 lsl 12)
  lor (rd lsl 7) lor 0x33

let i_type ~opcode ~funct3 ~rd ~rs1 =
  (rs1 lsl 15) lor (funct3 lsl 12) lor (rd lsl 7) lor opcode

let s_type ~funct3 ~rs1 ~rs2 =
  (rs2 lsl 20) lor (rs1 lsl 15) lor (funct3 lsl 12) lor 0x23

let b_type pc ~rs1 ~rs2 ~offset =
  if offset < -4096 || offset > 4094 then
    fail pc "branch offset %d bytes exceeds the B-type range" offset;
  let imm = offset land 0x1fff in
  (((imm lsr 12) land 1) lsl 31)
  lor (((imm lsr 5) land 0x3f) lsl 25)
  lor (rs2 lsl 20) lor (rs1 lsl 15)
  lor (((imm lsr 1) land 0xf) lsl 8)
  lor (((imm lsr 11) land 1) lsl 7)
  lor 0x63

let j_type pc ~rd ~offset =
  if offset < -1048576 || offset > 1048574 then
    fail pc "jump offset %d bytes exceeds the J-type range" offset;
  let imm = offset land 0x1fffff in
  (((imm lsr 20) land 1) lsl 31)
  lor (((imm lsr 1) land 0x3ff) lsl 21)
  lor (((imm lsr 11) land 1) lsl 20)
  lor (((imm lsr 12) land 0xff) lsl 12)
  lor (rd lsl 7) lor 0x6f

let ra = 1
let is_link r = r = 1 || r = 5

(* One line (without newline) for a correct-path record. *)
let line (r : Record.t) =
  let pc = r.pc in
  let byte_pc = pc * 4 in
  let rd = reg pc "dest" r.dest
  and rs1 = reg pc "src1" r.src1
  and rs2 = reg pc "src2" r.src2 in
  let offset target = (target - pc) * 4 in
  let plain insn = Printf.sprintf "%x %08x" byte_pc insn in
  let with_mem insn address =
    if address < 0 || address > 0xffff_ffff then
      fail pc "address %d outside 32 bits" address;
    Printf.sprintf "%x %08x mem %x" byte_pc insn address
  in
  match r.payload with
  | Other { op_class = Alu } -> plain (r_type ~funct7:0 ~funct3:0 ~rd ~rs1 ~rs2)
  | Other { op_class = Mult } -> plain (r_type ~funct7:1 ~funct3:0 ~rd ~rs1 ~rs2)
  | Other { op_class = Divide } ->
      plain (r_type ~funct7:1 ~funct3:4 ~rd ~rs1 ~rs2)
  | Memory { is_load = true; address } ->
      with_mem (i_type ~opcode:0x03 ~funct3:2 ~rd ~rs1) address
  | Memory { is_load = false; address } ->
      with_mem (s_type ~funct3:2 ~rs1 ~rs2) address
  | Branch { kind = Cond; target; _ } ->
      plain (b_type pc ~rs1 ~rs2 ~offset:(offset target))
  | Branch { kind = Jump; target; _ } ->
      plain (j_type pc ~rd:0 ~offset:(offset target))
  | Branch { kind = Call; target; _ } ->
      plain (j_type pc ~rd:ra ~offset:(offset target))
  | Branch { kind = Ret; _ } ->
      plain (i_type ~opcode:0x67 ~funct3:0 ~rd:0 ~rs1:ra)
  | Branch { kind = Indirect; _ } ->
      let rs1 = if is_link rs1 then 6 else rs1 in
      plain (i_type ~opcode:0x67 ~funct3:0 ~rd:0 ~rs1)

(* Write every correct-path record of [records] to [path]; returns the
   number of lines written. Raises [Unencodable] on a record the RV32
   profile cannot express. *)
let write_file path records =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Array.fold_left
        (fun lines (r : Record.t) ->
          if r.wrong_path then lines
          else begin
            output_string oc (line r);
            output_char oc '\n';
            lines + 1
          end)
        0 records)
