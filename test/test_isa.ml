(* Tests for the PISA-like ISA: registers, opcodes, assembler, machine
   state with speculative rollback, and the functional interpreter. *)

open Resim_isa

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* --- registers ----------------------------------------------------- *)

let test_reg_bounds () =
  check int "r0" 0 (Reg.to_int Reg.zero);
  check int "r31 is ra" 31 (Reg.to_int Reg.ra);
  check int "r29 is sp" 29 (Reg.to_int Reg.sp);
  check int "count" 32 Reg.count;
  Alcotest.check_raises "negative" (Invalid_argument "Reg.of_int: -1 out of range")
    (fun () -> ignore (Reg.of_int (-1)));
  Alcotest.check_raises "too large" (Invalid_argument "Reg.of_int: 32 out of range")
    (fun () -> ignore (Reg.of_int 32))

let test_reg_equal () =
  check bool "equal" true (Reg.equal (Reg.r 5) (Reg.r 5));
  check bool "not equal" false (Reg.equal (Reg.r 5) (Reg.r 6))

(* --- opcodes -------------------------------------------------------- *)

let test_opcode_classes () =
  let open Opcode in
  check bool "add is alu" true (op_class Add = Int_alu);
  check bool "mul is mult" true (op_class Mul = Int_mult);
  check bool "div is div" true (op_class Div = Int_div);
  check bool "rem is div" true (op_class Rem = Int_div);
  check bool "lw is load" true (op_class Lw = Load);
  check bool "lb is load" true (op_class Lb = Load);
  check bool "sw is store" true (op_class Sw = Store);
  check bool "beq is ctrl" true (op_class Beq = Ctrl);
  check bool "jal is ctrl" true (op_class Jal = Ctrl)

let test_opcode_branch_kinds () =
  let open Opcode in
  check bool "beq cond" true (branch_kind Beq = Some Cond);
  check bool "j jump" true (branch_kind J = Some Jump);
  check bool "jal call" true (branch_kind Jal = Some Call);
  check bool "jr ret" true (branch_kind Jr = Some Ret);
  check bool "jalr indirect" true (branch_kind Jalr = Some Indirect);
  check bool "add none" true (branch_kind Add = None);
  check bool "lw none" true (branch_kind Lw = None)

let test_opcode_mnemonics_distinct () =
  let mnemonics = List.map Opcode.mnemonic Opcode.all in
  let distinct = List.sort_uniq String.compare mnemonics in
  check int "all mnemonics distinct" (List.length mnemonics)
    (List.length distinct)

(* --- instructions --------------------------------------------------- *)

let test_instruction_addresses () =
  check int "8 bytes per instruction" 8 Instruction.bytes_per_instruction;
  check int "byte address" 80 (Instruction.byte_address 10)

(* --- assembler ------------------------------------------------------ *)

let test_asm_labels () =
  let program =
    Asm.(assemble [ label "top"; nop; j "top"; label "end"; halt ])
  in
  check int "three instructions" 3 (Program.length program);
  check int "top resolves" 0 (List.assoc "top" program.Program.symbols);
  check int "end resolves" 2 (List.assoc "end" program.Program.symbols);
  match program.Program.code.(1) with
  | { op = Opcode.J; imm; _ } -> check int "jump target" 0 imm
  | _ -> Alcotest.fail "expected a jump at index 1"

let test_asm_forward_reference () =
  let program = Asm.(assemble [ j "later"; nop; label "later"; halt ]) in
  check int "forward target" 2 program.Program.code.(0).imm

let test_asm_duplicate_label () =
  Alcotest.check_raises "duplicate" (Asm.Duplicate_label "x") (fun () ->
      ignore Asm.(assemble [ label "x"; nop; label "x"; halt ]))

let test_asm_unknown_label () =
  Alcotest.check_raises "unknown" (Asm.Unknown_label "nowhere") (fun () ->
      ignore Asm.(assemble [ j "nowhere" ]))

let test_asm_entry () =
  let program =
    Asm.(assemble ~entry:"main" [ halt; label "main"; nop; halt ])
  in
  check int "entry at main" 1 program.Program.entry

(* --- machine -------------------------------------------------------- *)

let empty_program = Program.make ~entry:0 ~symbols:[] ~data:[] [||]

let test_machine_registers () =
  let m = Machine.create empty_program in
  check int "initial zero" 0 (Machine.read_reg m (Reg.r 5));
  Machine.write_reg m (Reg.r 5) 42;
  check int "write/read" 42 (Machine.read_reg m (Reg.r 5));
  Machine.write_reg m Reg.zero 99;
  check int "r0 stays zero" 0 (Machine.read_reg m Reg.zero);
  check int "sp initialised" Machine.default_stack_base
    (Machine.read_reg m Reg.sp)

let test_machine_memory () =
  let m = Machine.create empty_program in
  check int "unwritten word is 0" 0 (Machine.read_word m 0x100);
  Machine.write_word m 0x100 7;
  check int "word write" 7 (Machine.read_word m 0x100);
  check int "word aligned access" 7 (Machine.read_word m 0x102);
  Machine.write_byte m 0x200 0x1ff;
  check int "byte masked" 0xff (Machine.read_byte m 0x200)

let test_machine_program_load () =
  let halt =
    { Instruction.op = Opcode.Halt; dest = None; src1 = None; src2 = None;
      imm = 0 }
  in
  let program =
    Program.make ~entry:0 ~symbols:[]
      ~data:[ (0x40, 11); (0x44, 22) ]
      [| halt |]
  in
  let m = Machine.create program in
  check int "data word 1" 11 (Machine.read_word m 0x40);
  check int "data word 2" 22 (Machine.read_word m 0x44)

let test_machine_rollback () =
  let m = Machine.create empty_program in
  Machine.write_reg m (Reg.r 1) 10;
  Machine.write_word m 0x10 5;
  let cp = Machine.checkpoint m in
  Machine.write_reg m (Reg.r 1) 20;
  Machine.write_reg m (Reg.r 2) 30;
  Machine.write_word m 0x10 6;
  Machine.write_word m 0x20 7;
  Machine.write_byte m 0x30 8;
  Machine.set_pc m 99;
  Machine.set_halted m true;
  Machine.rollback m cp;
  check int "reg restored" 10 (Machine.read_reg m (Reg.r 1));
  check int "new reg reverted" 0 (Machine.read_reg m (Reg.r 2));
  check int "word restored" 5 (Machine.read_word m 0x10);
  check int "new word removed" 0 (Machine.read_word m 0x20);
  check int "byte removed" 0 (Machine.read_byte m 0x30);
  check int "pc restored" 0 (Machine.pc m);
  check bool "halt restored" false (Machine.halted m)

let test_machine_nested_checkpoints () =
  let m = Machine.create empty_program in
  Machine.write_reg m (Reg.r 1) 1;
  let outer = Machine.checkpoint m in
  Machine.write_reg m (Reg.r 1) 2;
  let inner = Machine.checkpoint m in
  Machine.write_reg m (Reg.r 1) 3;
  Machine.rollback m inner;
  check int "inner rollback" 2 (Machine.read_reg m (Reg.r 1));
  Machine.rollback m outer;
  check int "outer rollback" 1 (Machine.read_reg m (Reg.r 1))

(* --- interpreter ---------------------------------------------------- *)

(* Run [stmts] to completion and return the machine. *)
let run_program stmts =
  let program = Asm.assemble stmts in
  let m = Machine.create program in
  ignore (Interpreter.run m program);
  m

let reg m r = Machine.read_reg m r

let test_alu_operations () =
  let open Asm in
  let m =
    run_program
      [ li t0 12; li t1 5;
        add t2 t0 t1;
        sub t3 t0 t1;
        and_ t4 t0 t1;
        or_ t5 t0 t1;
        xor t6 t0 t1;
        slt t7 t1 t0;
        halt ]
  in
  check int "add" 17 (reg m t2);
  check int "sub" 7 (reg m t3);
  check int "and" 4 (reg m t4);
  check int "or" 13 (reg m t5);
  check int "xor" 9 (reg m t6);
  check int "slt" 1 (reg m t7)

let test_shifts () =
  let open Asm in
  let m =
    run_program
      [ li t0 0b1100; li t1 2;
        sll t2 t0 t1;
        srl t3 t0 t1;
        li t4 (-8);
        sra t5 t4 t1;
        halt ]
  in
  check int "sll" 0b110000 (reg m t2);
  check int "srl" 0b11 (reg m t3);
  check int "sra" (-2) (reg m t5)

let test_immediates () =
  let open Asm in
  let m =
    run_program
      [ li t0 10;
        addi t1 t0 (-3);
        andi t2 t0 6;
        ori t3 t0 5;
        xori t4 t0 3;
        slti t5 t0 11;
        lui t6 2;
        halt ]
  in
  check int "addi" 7 (reg m t1);
  check int "andi" 2 (reg m t2);
  check int "ori" 15 (reg m t3);
  check int "xori" 9 (reg m t4);
  check int "slti" 1 (reg m t5);
  check int "lui" (2 lsl 16) (reg m t6)

let test_shift_amount_masked () =
  (* Shift amounts use the low five bits of the operand, as on MIPS. *)
  let open Asm in
  let m =
    run_program
      [ li t0 1; li t1 33; sll t2 t0 t1; li t1 32; sll t3 t0 t1; halt ]
  in
  check int "shift by 33 acts as 1" 2 (reg m t2);
  check int "shift by 32 acts as 0" 1 (reg m t3)

let test_mul_div_rem () =
  let open Asm in
  let m =
    run_program
      [ li t0 7; li t1 3;
        mul t2 t0 t1;
        div t3 t0 t1;
        rem t4 t0 t1;
        div t5 t0 Reg.zero;
        rem t6 t0 Reg.zero;
        halt ]
  in
  check int "mul" 21 (reg m t2);
  check int "div" 2 (reg m t3);
  check int "rem" 1 (reg m t4);
  check int "div by zero is 0" 0 (reg m t5);
  check int "rem by zero is 0" 0 (reg m t6)

let test_memory_ops () =
  let open Asm in
  let m =
    run_program
      [ li t0 0x500;
        li t1 1234;
        sw t1 8 t0;
        lw t2 8 t0;
        li t3 0xab;
        sb t3 1 t0;
        lb t4 1 t0;
        halt ]
  in
  check int "sw/lw" 1234 (reg m t2);
  check int "sb/lb" 0xab (reg m t4)

let test_branches () =
  let open Asm in
  let m =
    run_program
      [ li t0 1; li t1 1; li t7 0;
        beq t0 t1 "eq_taken";
        li t7 100;
        label "eq_taken";
        bne t0 t1 "bad";
        blt t0 t1 "bad";
        bge t0 t1 "ge_taken";
        li t7 100;
        label "ge_taken";
        halt;
        label "bad";
        li t7 999;
        halt ]
  in
  check int "branch semantics" 0 (reg m t7)

let test_call_return () =
  let open Asm in
  let m =
    run_program
      [ j "main";
        label "double";
        add v0 a0 a0;
        jr Reg.ra;
        label "main";
        li a0 21;
        jal "double";
        halt ]
  in
  check int "call/return result" 42 (reg m v0)

let test_jalr () =
  let open Asm in
  let program =
    Asm.assemble
      [ li t0 1;            (* address of... *)
        jalr t1 t0;         (* indirect call to instruction 1: itself? *)
        halt ]
  in
  (* jalr at index 1 jumps to index 1 (t0 = 1): an infinite self-loop;
     just take a single step and inspect the observation. *)
  let m = Machine.create program in
  ignore (Interpreter.step m program);
  (match Interpreter.step m program with
  | Interpreter.Stepped { control = Some { kind; taken; target }; _ } ->
      check bool "jalr indirect" true (kind = Opcode.Indirect);
      check bool "jalr taken" true taken;
      check int "jalr target" 1 target
  | Interpreter.Stepped { control = None; _ } | Interpreter.Halted_ ->
      Alcotest.fail "expected a control observation");
  check int "link register" 2 (Machine.read_reg m Asm.t1)

let test_jr_ret_kind () =
  let open Asm in
  let program =
    assemble [ li Reg.ra 2; jr Reg.ra; halt; jr t0 ]
  in
  let m = Machine.create program in
  ignore (Interpreter.step m program);
  (match Interpreter.step m program with
  | Interpreter.Stepped { control = Some { kind; _ }; _ } ->
      check bool "jr ra is Ret" true (kind = Opcode.Ret)
  | _ -> Alcotest.fail "expected control");
  (* jr through a non-ra register is Indirect *)
  let program2 = assemble [ li t0 1; jr t0 ] in
  let m2 = Machine.create program2 in
  ignore (Interpreter.step m2 program2);
  match Interpreter.step m2 program2 with
  | Interpreter.Stepped { control = Some { kind; _ }; _ } ->
      check bool "jr other is Indirect" true (kind = Opcode.Indirect)
  | _ -> Alcotest.fail "expected control"

let test_observation_fields () =
  let open Asm in
  let program = assemble [ li t0 0x600; lw t1 4 t0; halt ] in
  let m = Machine.create program in
  ignore (Interpreter.step m program);
  match Interpreter.step m program with
  | Interpreter.Stepped obs ->
      check int "index" 1 obs.index;
      check int "next" 2 (Machine.pc m);
      check bool "effective address" true
        (obs.effective_address = Some 0x604)
  | Interpreter.Halted_ -> Alcotest.fail "expected a step"

let test_run_off_end_halts () =
  let program = Asm.(assemble [ nop; nop ]) in
  let m = Machine.create program in
  let executed = Interpreter.run m program in
  check int "two instructions" 2 executed;
  check bool "halted" true (Machine.halted m)

let test_max_steps () =
  let program = Asm.(assemble [ label "spin"; j "spin" ]) in
  let m = Machine.create program in
  let executed = Interpreter.run ~max_steps:50 m program in
  check int "bounded" 50 executed;
  check bool "not halted" false (Machine.halted m)

(* --- speculative execution property --------------------------------- *)

(* Rollback must restore the machine exactly: running to step n then
   speculatively executing k more steps and rolling back equals running
   to step n directly. *)
let rollback_equivalence =
  QCheck.Test.make ~name:"checkpoint/rollback restores machine state"
    ~count:50
    QCheck.(pair (int_bound 30) (int_bound 30))
    (fun (n, k) ->
      let program =
        Asm.(
          assemble
            [ li t0 0; li t1 0; li s0 0x800;
              label "loop";
              addi t0 t0 3;
              andi t2 t0 7;
              sll t3 t0 t2;
              add t1 t1 t3;
              sw t1 0 s0;
              addi s0 s0 4;
              lw t4 (-4) s0;
              bne t4 Reg.zero "loop";
              halt ])
      in
      let straight = Machine.create program in
      for _ = 1 to n do ignore (Interpreter.step straight program) done;
      let speculated = Machine.create program in
      for _ = 1 to n do ignore (Interpreter.step speculated program) done;
      let cp = Machine.checkpoint speculated in
      for _ = 1 to k do ignore (Interpreter.step speculated program) done;
      Machine.rollback speculated cp;
      let regs_equal =
        List.for_all
          (fun i ->
            Machine.read_reg straight (Reg.r i)
            = Machine.read_reg speculated (Reg.r i))
          (List.init 32 Fun.id)
      in
      regs_equal
      && Machine.pc straight = Machine.pc speculated
      && Machine.halted straight = Machine.halted speculated)

let interpreter_never_crashes =
  QCheck.Test.make ~name:"random ALU programs run safely" ~count:50
    QCheck.(list_of_size (Gen.int_range 1 40) (int_bound 1000))
    (fun seeds ->
      let stmts =
        List.concat_map
          (fun seed ->
            let r i = Reg.r (1 + ((seed + i) mod 31)) in
            Asm.
              [ li (r 0) seed;
                add (r 1) (r 0) (r 2);
                mul (r 3) (r 1) (r 0);
                xor (r 2) (r 3) (r 1) ])
          seeds
        @ [ Asm.halt ]
      in
      let program = Asm.assemble stmts in
      let m = Machine.create program in
      let executed = Interpreter.run m program in
      executed = (4 * List.length seeds))

let suite =
  [ ("isa:reg",
     [ Alcotest.test_case "bounds" `Quick test_reg_bounds;
       Alcotest.test_case "equality" `Quick test_reg_equal ]);
    ("isa:opcode",
     [ Alcotest.test_case "classes" `Quick test_opcode_classes;
       Alcotest.test_case "branch kinds" `Quick test_opcode_branch_kinds;
       Alcotest.test_case "mnemonics distinct" `Quick
         test_opcode_mnemonics_distinct ]);
    ("isa:instruction",
     [ Alcotest.test_case "byte addresses" `Quick test_instruction_addresses
     ]);
    ("isa:asm",
     [ Alcotest.test_case "labels" `Quick test_asm_labels;
       Alcotest.test_case "forward reference" `Quick
         test_asm_forward_reference;
       Alcotest.test_case "duplicate label" `Quick test_asm_duplicate_label;
       Alcotest.test_case "unknown label" `Quick test_asm_unknown_label;
       Alcotest.test_case "entry point" `Quick test_asm_entry ]);
    ("isa:machine",
     [ Alcotest.test_case "registers" `Quick test_machine_registers;
       Alcotest.test_case "memory" `Quick test_machine_memory;
       Alcotest.test_case "program data" `Quick test_machine_program_load;
       Alcotest.test_case "rollback" `Quick test_machine_rollback;
       Alcotest.test_case "nested checkpoints" `Quick
         test_machine_nested_checkpoints ]);
    ("isa:interpreter",
     [ Alcotest.test_case "alu" `Quick test_alu_operations;
       Alcotest.test_case "shifts" `Quick test_shifts;
       Alcotest.test_case "immediates" `Quick test_immediates;
       Alcotest.test_case "shift masking" `Quick test_shift_amount_masked;
       Alcotest.test_case "mul/div/rem" `Quick test_mul_div_rem;
       Alcotest.test_case "memory" `Quick test_memory_ops;
       Alcotest.test_case "branches" `Quick test_branches;
       Alcotest.test_case "call/return" `Quick test_call_return;
       Alcotest.test_case "jalr" `Quick test_jalr;
       Alcotest.test_case "jr kinds" `Quick test_jr_ret_kind;
       Alcotest.test_case "observations" `Quick test_observation_fields;
       Alcotest.test_case "run off end" `Quick test_run_off_end_halts;
       Alcotest.test_case "max steps" `Quick test_max_steps ]);
    ("isa:properties",
     [ QCheck_alcotest.to_alcotest rollback_equivalence;
       QCheck_alcotest.to_alcotest interpreter_never_crashes ]) ]
