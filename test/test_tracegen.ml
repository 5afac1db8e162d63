(* Tests for the trace generator (sim-bpred analog) and the statistical
   synthesizer. *)

module Generator = Resim_tracegen.Generator
module Synthetic = Resim_tracegen.Synthetic
module Record = Resim_trace.Record

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* A loop whose exit is unpredictable enough to guarantee at least one
   misprediction under the real predictor. *)
let branchy_program =
  Resim_isa.Asm.(
    assemble
      [ li t0 0;
        li t1 7919;        (* LCG-ish state *)
        li s1 400;
        label "loop";
        li t3 1103515245;
        mul t1 t1 t3;
        addi t1 t1 12345;
        li t3 0x7fffffff;
        and_ t1 t1 t3;
        li t3 16;
        srl t2 t1 t3;
        andi t2 t2 1;
        beq t2 Resim_isa.Reg.zero "skip";
        addi t4 t4 1;
        label "skip";
        addi t0 t0 1;
        blt t0 s1 "loop";
        halt ])

let straight_program =
  Resim_isa.Asm.(
    assemble
      [ li t0 1; addi t0 t0 1; addi t0 t0 2; addi t0 t0 3; halt ])

let test_counts_are_consistent () =
  let result = Generator.run branchy_program in
  check int "records = correct + wrong"
    (result.correct_path + result.wrong_path)
    (Array.length result.records);
  check bool "program completed within the budget" true
    (result.correct_path < Generator.default_config.max_instructions)

let test_no_wrong_path_with_perfect_predictor () =
  let config =
    { Generator.default_config with
      predictor = Resim_bpred.Predictor.perfect_config }
  in
  let result = Generator.run ~config branchy_program in
  check int "no tagged records" 0 result.wrong_path;
  check int "no mispredictions" 0 result.mispredicted_branches

let test_wrong_path_structure () =
  (* Every tagged run must directly follow an untagged conditional
     branch record. *)
  let result = Generator.run branchy_program in
  check bool "some mispredictions for this loop" true
    (result.mispredicted_branches > 0);
  let records = result.records in
  Array.iteri
    (fun i (record : Record.t) ->
      if record.wrong_path && (i = 0 || not records.(i - 1).Record.wrong_path)
      then begin
        if i = 0 then Alcotest.fail "trace begins with a tagged record";
        match records.(i - 1).Record.payload with
        | Record.Branch { kind = Resim_isa.Opcode.Cond; _ } -> ()
        | Record.Branch _ | Record.Memory _ | Record.Other _ ->
            Alcotest.failf
              "tagged block at %d not preceded by a conditional branch" i
      end)
    records

let test_wrong_path_block_length_bounded () =
  let config = { Generator.default_config with wrong_path_limit = 5 } in
  let result = Generator.run ~config branchy_program in
  let current = ref 0 in
  Array.iter
    (fun (record : Record.t) ->
      if record.wrong_path then begin
        incr current;
        if !current > 5 then Alcotest.fail "wrong-path block exceeds limit"
      end
      else current := 0)
    result.records

let test_machine_state_unpolluted_by_speculation () =
  (* The generator speculates down wrong paths and rolls back; the
     retired-instruction count must match a plain interpreter run. *)
  let result = Generator.run branchy_program in
  let machine = Resim_isa.Machine.create branchy_program in
  let plain = Resim_isa.Interpreter.run machine branchy_program in
  check int "correct path length = plain execution" plain
    result.correct_path

let test_generator_deterministic () =
  let a = Generator.run branchy_program in
  let b = Generator.run branchy_program in
  check int "same record count" (Array.length a.records)
    (Array.length b.records);
  check bool "identical records" true
    (Array.for_all2 Record.equal a.records b.records)

let test_budget_respected () =
  let config = { Generator.default_config with max_instructions = 100 } in
  let result = Generator.run ~config branchy_program in
  check bool "budget enforced" true (result.correct_path <= 100);
  check int "stopped at the budget" 100 result.correct_path

let test_straight_line_has_no_branch_records () =
  let result = Generator.run straight_program in
  let summary = Resim_trace.Summary.of_records result.records in
  check int "no branches" 0 summary.branches;
  check int "four instructions" 4 result.correct_path

(* Generation allocates little beyond the records it returns: the
   interpreter's outcome of each step (8 to 14 words) and the memory and
   branch records it cannot reuse (9 to 11 words each), 14.8 words per
   record on gzip. Building the trace as a list, with an option per
   fetch and memory lookup, a boxed retired count, per-step closures and
   two source lists per record, took 66.6. *)
let words_per_record_bound = 20.

let test_allocation_per_record () =
  let program =
    Resim_workloads.Workload.(program_of (find "gzip")) ()
  in
  let before = Gc.minor_words () in
  let result = Generator.run program in
  let words = Gc.minor_words () -. before in
  let per_record = words /. float_of_int (Array.length result.records) in
  if per_record > words_per_record_bound then
    Alcotest.failf "%.1f minor words per record (bound %.0f)" per_record
      words_per_record_bound

(* --- synthetic ---------------------------------------------------------- *)

let test_synthetic_counts () =
  let profile = Synthetic.balanced ~name:"t" ~instructions:5000 in
  let records = Synthetic.generate ~seed:7 profile in
  let untagged =
    Array.fold_left
      (fun acc (r : Record.t) -> if r.wrong_path then acc else acc + 1)
      0 records
  in
  check int "correct-path length honoured" 5000 untagged

let test_synthetic_deterministic () =
  let profile = Synthetic.balanced ~name:"t" ~instructions:1000 in
  let a = Synthetic.generate ~seed:3 profile in
  let b = Synthetic.generate ~seed:3 profile in
  check bool "same seed, same trace" true (Array.for_all2 Record.equal a b);
  let c = Synthetic.generate ~seed:4 profile in
  let same_trace =
    Array.length a = Array.length c && Array.for_all2 Record.equal a c
  in
  check bool "different seed differs" true (not same_trace)

let test_synthetic_respects_mix () =
  let profile =
    { (Synthetic.balanced ~name:"t" ~instructions:20000) with
      loads = 0.3;
      stores = 0.05;
      branches = 0.1;
      mispredict_rate = 0.0 }
  in
  let records = Synthetic.generate ~seed:11 profile in
  let summary = Resim_trace.Summary.of_records records in
  let frac n = float_of_int n /. float_of_int summary.total in
  check bool "load fraction (±2%)" true
    (abs_float (frac summary.loads -. 0.3) < 0.02);
  check bool "store fraction (±2%)" true
    (abs_float (frac summary.stores -. 0.05) < 0.02);
  check int "no wrong path when rate 0" 0 summary.wrong_path

let test_synthetic_addresses_within_working_set () =
  let profile =
    { (Synthetic.balanced ~name:"t" ~instructions:3000) with
      working_set_bytes = 4096 }
  in
  let records = Synthetic.generate ~seed:13 profile in
  Array.iter
    (fun (record : Record.t) ->
      match record.payload with
      | Record.Memory { address; _ } ->
          if address < 0 || address >= 4096 then
            Alcotest.failf "address %#x outside the working set" address
      | Record.Branch _ | Record.Other _ -> ())
    records

let engine_accepts_synthetic =
  QCheck.Test.make
    ~name:"generated synthetic traces always simulate to completion"
    ~count:20
    QCheck.(pair (int_bound 1000) (int_bound 100))
    (fun (seed, mp) ->
      let profile =
        { (Synthetic.balanced ~name:"prop" ~instructions:800) with
          mispredict_rate = float_of_int mp /. 500.0 }
      in
      let records = Synthetic.generate ~seed profile in
      let stats = Resim_core.Engine.simulate records in
      Int64.compare (Resim_core.Stats.get Resim_core.Stats.committed stats) 0L
      > 0)

let suite =
  [ ("tracegen:generator",
     [ Alcotest.test_case "counts" `Quick test_counts_are_consistent;
       Alcotest.test_case "perfect predictor" `Quick
         test_no_wrong_path_with_perfect_predictor;
       Alcotest.test_case "wrong-path structure" `Quick
         test_wrong_path_structure;
       Alcotest.test_case "block length bound" `Quick
         test_wrong_path_block_length_bounded;
       Alcotest.test_case "rollback purity" `Quick
         test_machine_state_unpolluted_by_speculation;
       Alcotest.test_case "determinism" `Quick test_generator_deterministic;
       Alcotest.test_case "instruction budget" `Quick test_budget_respected;
       Alcotest.test_case "straight line" `Quick
         test_straight_line_has_no_branch_records;
       Alcotest.test_case "allocation per record" `Quick
         test_allocation_per_record ]);
    ("tracegen:synthetic",
     [ Alcotest.test_case "counts" `Quick test_synthetic_counts;
       Alcotest.test_case "determinism" `Quick test_synthetic_deterministic;
       Alcotest.test_case "mix" `Quick test_synthetic_respects_mix;
       Alcotest.test_case "working set" `Quick
         test_synthetic_addresses_within_working_set;
       QCheck_alcotest.to_alcotest engine_accepts_synthetic ]) ]
