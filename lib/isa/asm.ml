type target = Named of string

type proto = {
  op : Opcode.t;
  dest : Reg.t option;
  src1 : Reg.t option;
  src2 : Reg.t option;
  imm : int;
  target : target option;
}

type stmt = Label of string | Proto of proto

exception Unknown_label of string
exception Duplicate_label of string

let label name = Label name

let proto ?dest ?src1 ?src2 ?(imm = 0) ?target op =
  Proto { op; dest; src1; src2; imm; target }

let rrr op dest src1 src2 = proto ~dest ~src1 ~src2 op

let add = rrr Opcode.Add
let sub = rrr Opcode.Sub
let and_ = rrr Opcode.And
let or_ = rrr Opcode.Or
let xor = rrr Opcode.Xor
let sll = rrr Opcode.Sll
let srl = rrr Opcode.Srl
let sra = rrr Opcode.Sra
let slt = rrr Opcode.Slt
let mul = rrr Opcode.Mul
let div = rrr Opcode.Div
let rem = rrr Opcode.Rem

let rri op dest src1 imm = proto ~dest ~src1 ~imm op

let addi = rri Opcode.Addi
let andi = rri Opcode.Andi
let ori = rri Opcode.Ori
let xori = rri Opcode.Xori
let slti = rri Opcode.Slti
let lui dest imm = proto ~dest ~imm Opcode.Lui
let li dest imm = proto ~dest ~src1:Reg.zero ~imm Opcode.Addi
let mv dest src = proto ~dest ~src1:src ~src2:Reg.zero Opcode.Add

let lw dest disp base = proto ~dest ~src1:base ~imm:disp Opcode.Lw
let lb dest disp base = proto ~dest ~src1:base ~imm:disp Opcode.Lb

(* Stores read both the base ([src1]) and the value ([src2]). *)
let sw value disp base = proto ~src1:base ~src2:value ~imm:disp Opcode.Sw
let sb value disp base = proto ~src1:base ~src2:value ~imm:disp Opcode.Sb

let branch op src1 src2 name =
  proto ~src1 ~src2 ~target:(Named name) op

let beq = branch Opcode.Beq
let bne = branch Opcode.Bne
let blt = branch Opcode.Blt
let bge = branch Opcode.Bge

let j name = proto ~target:(Named name) Opcode.J
let jal name = proto ~dest:Reg.ra ~target:(Named name) Opcode.Jal
let jr src = proto ~src1:src Opcode.Jr
let jalr dest src = proto ~dest ~src1:src Opcode.Jalr
let nop = proto Opcode.Nop
let halt = proto Opcode.Halt

let t0 = Reg.r 8
let t1 = Reg.r 9
let t2 = Reg.r 10
let t3 = Reg.r 11
let t4 = Reg.r 12
let t5 = Reg.r 13
let t6 = Reg.r 14
let t7 = Reg.r 15
let s0 = Reg.r 16
let s1 = Reg.r 17
let s2 = Reg.r 18
let s3 = Reg.r 19
let a0 = Reg.r 4
let a1 = Reg.r 5
let a2 = Reg.r 6
let v0 = Reg.r 2

let assemble ?entry ?(data = []) stmts =
  (* First pass: bind labels to the index of the following instruction. *)
  let symbols = Hashtbl.create 64 in
  let bind name index =
    if Hashtbl.mem symbols name then raise (Duplicate_label name)
    else Hashtbl.add symbols name index
  in
  let next = ref 0 in
  List.iter
    (function
      | Label name -> bind name !next
      | Proto _ -> incr next)
    stmts;
  let resolve = function
    | Named name -> (
        match Hashtbl.find_opt symbols name with
        | Some index -> index
        | None -> raise (Unknown_label name))
  in
  let code =
    List.filter_map
      (function
        | Label _ -> None
        | Proto p ->
            let imm =
              match p.target with
              | Some target -> resolve target
              | None -> p.imm
            in
            Some
              { Instruction.op = p.op; dest = p.dest; src1 = p.src1;
                src2 = p.src2; imm })
      stmts
    |> Array.of_list
  in
  let entry_index =
    match entry with
    | None -> 0
    | Some name -> resolve (Named name)
  in
  let symbol_list =
    Hashtbl.fold (fun name index acc -> (name, index) :: acc) symbols []
    |> List.sort (fun (_, i) (_, j) -> Int.compare i j)
  in
  Program.make ~entry:entry_index ~symbols:symbol_list ~data code
