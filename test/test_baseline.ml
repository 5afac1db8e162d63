(* Tests for the execution-driven and in-order baselines, plus the
   agreement between the fused baseline and trace-driven ReSim. *)

module Record = Resim_trace.Record

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let i64 = Alcotest.int64

let gzip_program () =
  let gzip = Resim_workloads.Workload.find "gzip" in
  Resim_workloads.Workload.program_of gzip ~scale:1024 ()

let test_fused_agrees_with_trace_driven () =
  (* The fused execution-driven baseline must produce the same simulated
     timing as generating the trace first and timing it separately —
     same functional model, same timing model. *)
  let program = gzip_program () in
  let fused = Resim_baseline.Sim_outorder.run program in
  let config = Resim_core.Config.reference in
  let generator =
    { Resim_tracegen.Generator.predictor = config.predictor;
      wrong_path_limit = config.rob_entries + config.ifq_entries;
      max_instructions = 20_000_000 }
  in
  let records = Resim_tracegen.Generator.records ~config:generator program in
  let separate =
    Resim_core.Resim.(outcome_exn (run ~config (Records records)))
  in
  check i64 "same committed"
    (Resim_core.Stats.get Resim_core.Stats.committed fused.outcome.stats)
    (Resim_core.Stats.get Resim_core.Stats.committed separate.stats);
  check i64 "same major cycles"
    (Resim_core.Stats.get Resim_core.Stats.major_cycles fused.outcome.stats)
    (Resim_core.Stats.get Resim_core.Stats.major_cycles separate.stats)

let test_functional_only_matches_interpreter () =
  let program = gzip_program () in
  let via_baseline = Resim_baseline.Sim_outorder.functional_only program in
  let machine = Resim_isa.Machine.create program in
  let via_interpreter = Resim_isa.Interpreter.run machine program in
  check int "same instruction count" via_interpreter via_baseline

let test_fused_counts_wrong_path_work () =
  let program = gzip_program () in
  let fused = Resim_baseline.Sim_outorder.run program in
  let committed =
    Int64.to_int
      (Resim_core.Stats.get Resim_core.Stats.committed fused.outcome.stats)
  in
  check bool "functional work >= committed" true
    (fused.functional_instructions >= committed)

(* --- in-order ------------------------------------------------------- *)

let alu ~pc ~dest ~src1 =
  { Record.pc; wrong_path = false; dest; src1; src2 = 0;
    payload = Record.Other { op_class = Record.Alu } }

let test_in_order_ipc_at_most_one () =
  let records = Array.init 200 (fun i -> alu ~pc:i ~dest:1 ~src1:2) in
  let result = Resim_baseline.In_order.simulate records in
  check bool "scalar pipeline" true (result.ipc <= 1.0);
  check i64 "all instructions" 200L result.instructions

let test_in_order_load_use_stall () =
  let without =
    [| alu ~pc:0 ~dest:1 ~src1:2; alu ~pc:1 ~dest:3 ~src1:4 |]
  in
  let with_hazard =
    [| { Record.pc = 0; wrong_path = false; dest = 1; src1 = 2; src2 = 0;
         payload = Record.Memory { is_load = true; address = 64 } };
       alu ~pc:1 ~dest:3 ~src1:1 |]
  in
  let base = (Resim_baseline.In_order.simulate without).cycles in
  let stalled = (Resim_baseline.In_order.simulate with_hazard).cycles in
  check bool "load-use hazard costs a cycle" true
    (Int64.compare stalled base > 0)

let test_in_order_long_latency_ops () =
  let divides =
    Array.init 10 (fun i ->
        { Record.pc = i; wrong_path = false; dest = 1; src1 = 2; src2 = 0;
          payload = Record.Other { op_class = Record.Divide } })
  in
  let result = Resim_baseline.In_order.simulate divides in
  (* 1 + 9 stall cycles per divide. *)
  check i64 "divide stalls" 100L result.cycles

let test_in_order_wrong_path_penalty_once_per_block () =
  let records =
    [| alu ~pc:0 ~dest:1 ~src1:2;
       { (alu ~pc:10 ~dest:1 ~src1:2) with Record.wrong_path = true };
       { (alu ~pc:11 ~dest:1 ~src1:2) with Record.wrong_path = true };
       alu ~pc:1 ~dest:3 ~src1:4 |]
  in
  let result = Resim_baseline.In_order.simulate records in
  check i64 "two timed instructions" 2L result.instructions;
  (* 2 instruction cycles + one 3-cycle block penalty. *)
  check i64 "penalty once" 5L result.cycles

let test_in_order_ooo_speedup_on_ilp () =
  (* Independent work: the 4-wide OoO core must beat the scalar
     pipeline clearly. *)
  let records =
    Array.init 400 (fun i -> alu ~pc:i ~dest:(1 + (i mod 28)) ~src1:30)
  in
  let in_order = (Resim_baseline.In_order.simulate records).ipc in
  let ooo =
    Resim_core.Stats.ipc (Resim_core.Engine.simulate records)
  in
  check bool "OoO exploits ILP" true (ooo > 2.0 *. in_order)

let suite =
  [ ("baseline:sim-outorder",
     [ Alcotest.test_case "fused = trace-driven" `Slow
         test_fused_agrees_with_trace_driven;
       Alcotest.test_case "functional-only" `Quick
         test_functional_only_matches_interpreter;
       Alcotest.test_case "wrong-path work counted" `Quick
         test_fused_counts_wrong_path_work ]);
    ("baseline:in-order",
     [ Alcotest.test_case "scalar IPC bound" `Quick
         test_in_order_ipc_at_most_one;
       Alcotest.test_case "load-use stall" `Quick test_in_order_load_use_stall;
       Alcotest.test_case "long-latency stalls" `Quick
         test_in_order_long_latency_ops;
       Alcotest.test_case "wrong-path penalty" `Quick
         test_in_order_wrong_path_penalty_once_per_block;
       Alcotest.test_case "OoO speedup" `Quick
         test_in_order_ooo_speedup_on_ilp ]) ]
