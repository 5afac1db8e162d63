(* Tests for the extensions beyond the paper's minimum: record sources
   and streaming co-simulation, the multi-core system, the L2 hierarchy,
   histograms, and the textual assembler. *)

module Record = Resim_trace.Record

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let i64 = Alcotest.int64

(* --- Source ----------------------------------------------------------- *)

let sample n =
  Array.init n (fun i ->
      { Record.pc = i; wrong_path = false; dest = 1; src1 = 2; src2 = 0;
        payload = Record.Other { op_class = Record.Alu } })

let test_source_array () =
  let source = Resim_core.Source.of_array (sample 5) in
  check bool "index 0" true (Resim_core.Source.at source 0 <> None);
  check bool "index 4" true (Resim_core.Source.at source 4 <> None);
  check bool "index 5 ends" true (Resim_core.Source.at source 5 = None);
  Resim_core.Source.release_below source 3;
  check bool "array sources never reclaim" true
    (Resim_core.Source.at source 0 <> None)

let test_source_pull () =
  let records = sample 100 in
  let next = ref 0 in
  let pull () =
    if !next >= Array.length records then None
    else begin
      let record = records.(!next) in
      incr next;
      Some record
    end
  in
  let source = Resim_core.Source.of_pull pull in
  (* Lazy: nothing pulled yet. *)
  check int "lazy" 0 !next;
  check bool "at 10 pulls through" true
    (Resim_core.Source.at source 10 <> None);
  check int "pulled exactly 11" 11 !next;
  (* Random access within the window works. *)
  check bool "re-read 3" true
    (match Resim_core.Source.at source 3 with
     | Some r -> r.Record.pc = 3
     | None -> false);
  check bool "end detected" true (Resim_core.Source.at source 100 = None)

let test_source_reclaim () =
  let next = ref 0 in
  let pull () =
    let record = (sample 1).(0) in
    incr next;
    if !next > 5000 then None else Some { record with Record.pc = !next }
  in
  let source = Resim_core.Source.of_pull pull in
  for i = 0 to 4999 do
    ignore (Resim_core.Source.at source i);
    Resim_core.Source.release_below source i
  done;
  check bool "window stays bounded" true
    (Resim_core.Source.buffered source < 3000);
  Alcotest.check_raises "reclaimed index rejected"
    (Invalid_argument "Source.at: index already reclaimed") (fun () ->
      ignore (Resim_core.Source.at source 0))

(* --- Stream + Cosim ---------------------------------------------------- *)

let gzip_program scale =
  let gzip = Resim_workloads.Workload.find "gzip" in
  Resim_workloads.Workload.program_of gzip ~scale ()

let test_stream_matches_batch_generator () =
  let program = gzip_program 1024 in
  let batch = Resim_tracegen.Generator.run program in
  let stream =
    Resim_tracegen.Stream.create
      ~config:Resim_tracegen.Generator.default_config program
  in
  let rec drain acc =
    match Resim_tracegen.Stream.pull stream with
    | Some record -> drain (record :: acc)
    | None -> Array.of_list (List.rev acc)
  in
  let streamed = drain [] in
  check int "same length" (Array.length batch.records)
    (Array.length streamed);
  check bool "identical records" true
    (Array.for_all2 Record.equal batch.records streamed);
  check int "same correct-path count" batch.correct_path
    (Resim_tracegen.Stream.correct_path stream)

let test_cosim_equals_batch () =
  let program = gzip_program 2048 in
  let cosim = Resim_core.Cosim.run program in
  let batch = Resim_core.Resim.simulate_program program in
  check i64 "same cycles"
    (Resim_core.Stats.get Resim_core.Stats.major_cycles batch.stats)
    (Resim_core.Stats.get Resim_core.Stats.major_cycles cosim.stats);
  check i64 "same committed"
    (Resim_core.Stats.get Resim_core.Stats.committed batch.stats)
    (Resim_core.Stats.get Resim_core.Stats.committed cosim.stats);
  check i64 "same squashes"
    (Resim_core.Stats.get Resim_core.Stats.mispredictions batch.stats)
    (Resim_core.Stats.get Resim_core.Stats.mispredictions cosim.stats)

let test_cosim_memory_bounded () =
  let program = gzip_program 4096 in
  let cosim = Resim_core.Cosim.run program in
  (* The whole trace is >100k records; the co-simulation window must
     stay orders of magnitude below that. *)
  check bool "bounded buffering" true (cosim.peak_buffered_records < 5_000);
  check bool "work was done" true (cosim.correct_path > 50_000)

(* --- Multicore ---------------------------------------------------------- *)

let spec_of name scale =
  let workload = Resim_workloads.Workload.find name in
  let program = Resim_workloads.Workload.program_of workload ~scale () in
  { Resim_multicore.System.name;
    feed = Resim_core.Resim.Records (Resim_tracegen.Generator.records program);
    config = Resim_core.Config.reference }

let test_multicore_lockstep_equals_standalone () =
  let specs = [ spec_of "gzip" 1024; spec_of "parser" 1024 ] in
  let system = Resim_multicore.System.create specs in
  check bool "system drains" true
    (Resim_multicore.System.run system = `Finished);
  List.iter2
    (fun (spec : Resim_multicore.System.core_spec)
         (result : Resim_multicore.System.core_result) ->
      let standalone =
        match spec.feed with
        | Resim_core.Resim.Records records ->
            Resim_core.Engine.run
              (Resim_core.Engine.create ~config:spec.config records)
        | Resim_core.Resim.Pull _ -> assert false
      in
      check i64
        (spec.name ^ " cycles match standalone")
        (Resim_core.Stats.get Resim_core.Stats.major_cycles standalone)
        (Resim_core.Stats.get Resim_core.Stats.major_cycles result.stats))
    specs
    (Resim_multicore.System.results system)

let test_multicore_clock_is_slowest_core () =
  let specs = [ spec_of "gzip" 1024; spec_of "vortex" 256 ] in
  let system = Resim_multicore.System.create specs in
  check bool "system drains" true
    (Resim_multicore.System.run system = `Finished);
  let results = Resim_multicore.System.results system in
  let slowest =
    List.fold_left
      (fun acc (r : Resim_multicore.System.core_result) ->
        max acc r.finished_at)
      0L results
  in
  check i64 "clock = slowest drain" slowest
    (Resim_multicore.System.elapsed_cycles system)

let test_multicore_validation () =
  Alcotest.check_raises "empty system"
    (Invalid_argument "System.create: no cores") (fun () ->
      ignore (Resim_multicore.System.create []));
  let mixed =
    [ spec_of "gzip" 256;
      { (spec_of "parser" 256) with
        config =
          { Resim_core.Config.reference with
            organization = Resim_core.Config.Improved } } ]
  in
  Alcotest.check_raises "mixed organizations"
    (Invalid_argument
       "System.create: co-resident cores must share organization and width")
    (fun () -> ignore (Resim_multicore.System.create mixed))

let test_multicore_aggregate () =
  let specs = [ spec_of "gzip" 512; spec_of "vpr" 1 ] in
  let system = Resim_multicore.System.create specs in
  check bool "system drains" true
    (Resim_multicore.System.run system = `Finished);
  let sum =
    List.fold_left
      (fun acc (r : Resim_multicore.System.core_result) ->
        Int64.add acc (Resim_core.Stats.get Resim_core.Stats.committed r.stats))
      0L
      (Resim_multicore.System.results system)
  in
  check i64 "aggregate = sum of cores" sum
    (Resim_multicore.System.aggregate_committed system);
  check bool "aggregate MIPS positive" true
    (Resim_multicore.System.aggregate_mips system
       ~device:Resim_fpga.Device.virtex5_xc5vlx50t
    > 0.0)

let test_multicore_truncation_reported () =
  let specs = [ spec_of "gzip" 1024; spec_of "vpr" 1 ] in
  let system = Resim_multicore.System.create specs in
  check bool "budget exhausted" true
    (Resim_multicore.System.run ~max_cycles:10L system = `Truncated);
  check i64 "clock stops at the budget" 10L
    (Resim_multicore.System.elapsed_cycles system);
  List.iter
    (fun (r : Resim_multicore.System.core_result) ->
      check bool (r.core ^ " reported undrained") false r.drained;
      check i64 (r.core ^ " finished_at is the truncation clock") 10L
        r.finished_at)
    (Resim_multicore.System.results system);
  (* Resuming past the budget eventually drains and flips the status. *)
  check bool "resume finishes" true
    (Resim_multicore.System.run system = `Finished);
  List.iter
    (fun (r : Resim_multicore.System.core_result) ->
      check bool (r.core ^ " drained after resume") true r.drained)
    (Resim_multicore.System.results system)

(* --- Hierarchy ----------------------------------------------------------- *)

let test_hierarchy_l2_absorbs_misses () =
  let l2 =
    Resim_cache.Cache.create
      ~timing:{ Resim_cache.Cache.hit_latency = 6; miss_latency = 40 }
      (Resim_cache.Cache.Set_associative
         { size_bytes = 256 * 1024; associativity = 8; block_bytes = 64 })
  in
  let h =
    Resim_cache.Hierarchy.create ~timing:Resim_cache.Cache.default_timing
      Resim_cache.Cache.l1_32k_8way_64b ~l2:(Some l2)
  in
  (* Cold: L1 miss + L2 miss. *)
  let cold = Resim_cache.Hierarchy.access h ~addr:0x1000 ~write:false in
  check int "cold miss via L2" (1 + 6 + 40) cold;
  (* Warm L1. *)
  check int "L1 hit" 1 (Resim_cache.Hierarchy.access h ~addr:0x1000 ~write:false);
  (* Evict from L1 by sweeping 64 KB, then re-access: L1 miss, L2 hit. *)
  for block = 1 to 1024 do
    ignore (Resim_cache.Hierarchy.access h ~addr:(0x1000 + (block * 64)) ~write:false)
  done;
  let l2_hit = Resim_cache.Hierarchy.access h ~addr:0x1000 ~write:false in
  check int "L1 miss, L2 hit" (1 + 6) l2_hit

let test_hierarchy_without_l2 () =
  let h =
    Resim_cache.Hierarchy.create ~timing:Resim_cache.Cache.default_timing
      Resim_cache.Cache.l1_32k_8way_64b ~l2:None
  in
  check int "flat miss" 19
    (Resim_cache.Hierarchy.access h ~addr:0x40 ~write:false);
  check int "flat hit" 1 (Resim_cache.Hierarchy.access h ~addr:0x40 ~write:false)

let test_engine_l2_speeds_up_thrashing_loads () =
  let loads =
    Array.init 128 (fun i ->
        { Record.pc = i; wrong_path = false; dest = 1 + (i mod 8);
          src1 = 29; src2 = 0;
          payload =
            Record.Memory { is_load = true; address = (i mod 32) * 8192 } })
  in
  let flat =
    { Resim_core.Config.reference with
      dcache = Resim_cache.Cache.l1_32k_8way_64b }
  in
  let with_l2 =
    { flat with
      l2cache =
        Some
          (Resim_cache.Cache.Set_associative
             { size_bytes = 512 * 1024; associativity = 8; block_bytes = 64 });
      l2_timing = { Resim_cache.Cache.hit_latency = 6; miss_latency = 40 } }
  in
  let cycles config =
    Resim_core.Stats.get Resim_core.Stats.major_cycles
      (Resim_core.Engine.run (Resim_core.Engine.create ~config loads))
  in
  (* The access set (32 blocks spread over 256 KB) conflicts in the
     32 KB L1 but lives comfortably in the L2, so the L2 must help
     compared against a flat L1 whose misses cost the full memory
     latency... with the flat L1's 18-cycle miss vs the L2 hit of 6. *)
  check bool "L2 reduces cycles" true (cycles with_l2 < cycles flat)

(* --- Histogram ------------------------------------------------------------ *)

let test_histogram_basics () =
  let h = Resim_core.Histogram.create ~bins:5 in
  List.iter (Resim_core.Histogram.observe h) [ 0; 1; 1; 2; 9; -3 ];
  check (Alcotest.int64) "bin 1" 2L (Resim_core.Histogram.count h 1);
  check (Alcotest.int64) "clamp high" 1L (Resim_core.Histogram.count h 4);
  check (Alcotest.int64) "clamp low" 2L (Resim_core.Histogram.count h 0);
  check (Alcotest.int64) "total" 6L (Resim_core.Histogram.total h);
  check bool "fraction" true
    (abs_float (Resim_core.Histogram.fraction_at h 1 -. (2.0 /. 6.0)) < 1e-9)

let test_engine_histograms_populated () =
  let records = sample 400 in
  let records =
    Array.mapi
      (fun i (r : Record.t) -> { r with Record.dest = 1 + (i mod 28) })
      records
  in
  let engine = Resim_core.Engine.create records in
  ignore (Resim_core.Engine.run engine);
  let stats = Resim_core.Engine.stats engine in
  let commit = Resim_core.Stats.commit_width_histogram stats in
  check (Alcotest.int64) "one observation per cycle"
    (Resim_core.Stats.get Resim_core.Stats.major_cycles stats)
    (Resim_core.Histogram.total commit);
  (* Independent work on a 4-wide machine commits 4-wide in steady
     state. *)
  check bool "wide commits dominate" true
    (Resim_core.Histogram.fraction_at commit 4 > 0.5)

(* --- Parser ----------------------------------------------------------------- *)

let test_parser_roundtrip_semantics () =
  let source =
    "# sum 1..n\n\
     .entry main\n\
     .word 0x200 10\n\
     main:\n\
     \  lw t0, 0x200(zero)\n\
     \  li t1, 0\n\
     loop:\n\
     \  add t1, t1, t0\n\
     \  addi t0, t0, -1\n\
     \  bne t0, zero, loop\n\
     \  sw t1, 0x204(zero)\n\
     \  halt\n"
  in
  let program = Resim_isa.Parser.parse source in
  let machine = Resim_isa.Machine.create program in
  ignore (Resim_isa.Interpreter.run machine program);
  check int "sum 1..10" 55 (Resim_isa.Machine.read_word machine 0x204)

let test_parser_registers () =
  check bool "alias" true
    (Resim_isa.Parser.register_of_string "sp" = Some Resim_isa.Reg.sp);
  check bool "numeric" true
    (Resim_isa.Parser.register_of_string "r17" = Some (Resim_isa.Reg.r 17));
  check bool "bad name" true (Resim_isa.Parser.register_of_string "x9" = None);
  check bool "out of range" true
    (Resim_isa.Parser.register_of_string "r32" = None)

let test_parser_errors () =
  let expect_error source =
    match Resim_isa.Parser.parse source with
    | exception Resim_isa.Parser.Parse_error _ -> ()
    | _ -> Alcotest.fail "expected a parse error"
  in
  expect_error "  addq t0, t1, t2\n";
  expect_error "  add t0, t1\n";
  expect_error "  lw t0, t1\n";
  expect_error "  li t0, notanumber\n";
  expect_error "  add t0, t1, x99\n";
  (* line numbers are reported *)
  match Resim_isa.Parser.parse "nop\nnop\nbogus t0\n" with
  | exception Resim_isa.Parser.Parse_error { line; _ } ->
      check int "line number" 3 line
  | _ -> Alcotest.fail "expected a parse error"

let test_parser_mixed_labels_and_comments () =
  let program =
    Resim_isa.Parser.parse
      "start: nop ; trailing comment\n\
       a: b: halt\n"
  in
  check int "two instructions" 2 (Resim_isa.Program.length program);
  let symbols = program.Resim_isa.Program.symbols in
  check int "start" 0 (List.assoc "start" symbols);
  check int "a" 1 (List.assoc "a" symbols);
  check int "b" 1 (List.assoc "b" symbols)

let test_parser_matches_edsl () =
  (* The same program through the text parser and the EDSL produces the
     same timing. *)
  let text =
    "main:\n\
     \  li t0, 0\n\
     loop:\n\
     \  addi t0, t0, 1\n\
     \  slti t1, t0, 64\n\
     \  bne t1, zero, loop\n\
     \  halt\n"
  in
  let parsed = Resim_isa.Parser.parse text in
  let edsl =
    Resim_isa.Asm.(
      assemble
        [ label "main"; li t0 0; label "loop"; addi t0 t0 1;
          slti t1 t0 64; bne t1 Resim_isa.Reg.zero "loop"; halt ])
  in
  let cycles program =
    Resim_core.Stats.get Resim_core.Stats.major_cycles
      (Resim_core.Resim.simulate_program program).stats
  in
  check i64 "identical timing" (cycles edsl) (cycles parsed)

(* --- Disassembler ------------------------------------------------------ *)

let test_disasm_roundtrip_example () =
  let program =
    Resim_isa.Asm.(
      assemble ~entry:"main" ~data:[ (64, 9) ]
        [ label "sub";
          add v0 a0 a0;
          jr Resim_isa.Reg.ra;
          label "main";
          lw a0 64 Resim_isa.Reg.zero;
          jal "sub";
          sw v0 68 Resim_isa.Reg.zero;
          li t0 0;
          label "spin";
          addi t0 t0 1;
          slti t1 t0 4;
          bne t1 Resim_isa.Reg.zero "spin";
          halt ])
  in
  let text = Resim_isa.Disasm.program program in
  let reparsed = Resim_isa.Parser.parse text in
  check int "entry preserved" program.Resim_isa.Program.entry
    reparsed.Resim_isa.Program.entry;
  check bool "data preserved" true
    (reparsed.Resim_isa.Program.data = program.Resim_isa.Program.data);
  check bool "instructions identical" true
    (reparsed.Resim_isa.Program.code = program.Resim_isa.Program.code);
  (* And it still computes the same thing. *)
  let run program =
    let machine = Resim_isa.Machine.create program in
    ignore (Resim_isa.Interpreter.run machine program);
    Resim_isa.Machine.read_word machine 68
  in
  check int "same result" (run program) (run reparsed)

(* Random straight-line-plus-loops program generator for the round-trip
   property. *)
let random_program_gen =
  let open QCheck.Gen in
  let instruction i =
    frequency
      [ (6, map2 (fun op regs ->
                let r k = Resim_isa.Reg.r (1 + ((regs lsr k) land 15)) in
                let build =
                  match op mod 6 with
                  | 0 -> Resim_isa.Asm.add | 1 -> Resim_isa.Asm.sub
                  | 2 -> Resim_isa.Asm.xor | 3 -> Resim_isa.Asm.mul
                  | 4 -> Resim_isa.Asm.slt | _ -> Resim_isa.Asm.or_
                in
                build (r 0) (r 4) (r 8))
             small_nat (int_bound 4095));
        (2, map2 (fun regs disp ->
                let r k = Resim_isa.Reg.r (1 + ((regs lsr k) land 15)) in
                if regs land 1 = 0 then Resim_isa.Asm.lw (r 0) disp (r 4)
                else Resim_isa.Asm.sw (r 0) disp (r 4))
             (int_bound 4095) (int_range (-64) 64));
        (1, map (fun regs ->
                let r k = Resim_isa.Reg.r (1 + ((regs lsr k) land 15)) in
                (* Backward conditional branch to a label planted at the
                   start; always resolvable. *)
                Resim_isa.Asm.beq (r 0) (r 4) "top")
             (int_bound 4095)) ]
    |> fun g -> ignore i; g
  in
  int_range 2 40 >>= fun n ->
  flatten_l (List.init n (fun i -> instruction i)) >>= fun body ->
  return
    (Resim_isa.Asm.assemble
       ((Resim_isa.Asm.label "top" :: body) @ [ Resim_isa.Asm.halt ]))

let disasm_roundtrip_property =
  QCheck.Test.make ~name:"disassemble/parse round-trips random programs"
    ~count:100
    (QCheck.make random_program_gen)
    (fun program ->
      let reparsed =
        Resim_isa.Parser.parse (Resim_isa.Disasm.program program)
      in
      reparsed.Resim_isa.Program.code = program.Resim_isa.Program.code
      && reparsed.Resim_isa.Program.entry = program.Resim_isa.Program.entry)

let suite =
  [ ("ext:source",
     [ Alcotest.test_case "array" `Quick test_source_array;
       Alcotest.test_case "pull" `Quick test_source_pull;
       Alcotest.test_case "reclaim" `Quick test_source_reclaim ]);
    ("ext:cosim",
     [ Alcotest.test_case "stream = batch generator" `Quick
         test_stream_matches_batch_generator;
       Alcotest.test_case "cosim = batch pipeline" `Quick
         test_cosim_equals_batch;
       Alcotest.test_case "bounded memory" `Slow test_cosim_memory_bounded ]);
    ("ext:multicore",
     [ Alcotest.test_case "lockstep = standalone" `Quick
         test_multicore_lockstep_equals_standalone;
       Alcotest.test_case "clock" `Quick test_multicore_clock_is_slowest_core;
       Alcotest.test_case "validation" `Quick test_multicore_validation;
       Alcotest.test_case "aggregates" `Quick test_multicore_aggregate;
       Alcotest.test_case "truncation reported" `Quick
         test_multicore_truncation_reported ]);
    ("ext:hierarchy",
     [ Alcotest.test_case "L2 absorbs misses" `Quick
         test_hierarchy_l2_absorbs_misses;
       Alcotest.test_case "flat L1" `Quick test_hierarchy_without_l2;
       Alcotest.test_case "engine with L2" `Quick
         test_engine_l2_speeds_up_thrashing_loads ]);
    ("ext:histogram",
     [ Alcotest.test_case "basics" `Quick test_histogram_basics;
       Alcotest.test_case "engine populates" `Quick
         test_engine_histograms_populated ]);
    ("ext:disasm",
     [ Alcotest.test_case "example round-trip" `Quick
         test_disasm_roundtrip_example;
       QCheck_alcotest.to_alcotest disasm_roundtrip_property ]);
    ("ext:parser",
     [ Alcotest.test_case "semantics" `Quick test_parser_roundtrip_semantics;
       Alcotest.test_case "registers" `Quick test_parser_registers;
       Alcotest.test_case "errors" `Quick test_parser_errors;
       Alcotest.test_case "labels/comments" `Quick
         test_parser_mixed_labels_and_comments;
       Alcotest.test_case "parser = EDSL" `Quick test_parser_matches_edsl ])
  ]
