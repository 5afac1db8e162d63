(* Benchmark harness: regenerates every table (1-4) and figure (2-4) of
   the paper, runs the ablation studies, writes the tables as CSV and
   measures host throughput of the trace-driven engine against the
   execution-driven baseline with Bechamel. Engine speed itself is
   perfbench's (perfbench/README.md). *)

open Bechamel

let section title =
  Format.printf "@.%s@.%s@.@." title (String.make (String.length title) '=')

let reports () =
  section "Figures 2-4: ReSim internal pipeline organizations";
  Resim_reports.Figures.print_all Format.std_formatter;
  Format.printf "@.";
  section "Table 1: simulation performance";
  Resim_reports.Table1.print Format.std_formatter;
  Format.printf "@.";
  section "Table 2: simulator comparison";
  Resim_reports.Table2.print Format.std_formatter;
  Format.printf "@.";
  section "Table 3: throughput statistics and trace bandwidth";
  Resim_reports.Table3.print Format.std_formatter;
  Format.printf "@.";
  section "Table 4: area cost";
  Resim_reports.Table4.print Format.std_formatter;
  Format.printf "@.";
  section "Ablations";
  Resim_reports.Ablations.print_all Format.std_formatter;
  Format.printf "@."

(* ------------------------------------------------------------------ *)
(* Host-side microbenchmarks.                                          *)

type host_bench = {
  name : string;
  test : Test.t;
  work_instructions : float;
      (** simulated instructions one run of the test covers, for host
          MIPS; 0 when not meaningful *)
}

(* The benches, with the correct-path instruction count of the gzip run
   they share. *)
let host_benches () =
  let gzip = Resim_workloads.Workload.find "gzip" in
  let program = Resim_workloads.Workload.program_of gzip ~scale:8192 () in
  let generated = Resim_tracegen.Generator.run program in
  let records = generated.records in
  let correct = float_of_int generated.correct_path in
  let engine_test =
    Test.make ~name:"resim-engine (trace-driven)"
      (Staged.stage (fun () ->
           ignore (Resim_core.Engine.simulate records)))
  in
  let tracegen_test =
    Test.make ~name:"trace generation (sim-bpred analog)"
      (Staged.stage (fun () ->
           ignore (Resim_tracegen.Generator.records program)))
  in
  let fused_test =
    Test.make ~name:"execution-driven baseline (fused)"
      (Staged.stage (fun () ->
           ignore (Resim_baseline.Sim_outorder.run program)))
  in
  let functional_test =
    Test.make ~name:"functional only (sim-fast analog)"
      (Staged.stage (fun () ->
           ignore (Resim_baseline.Sim_outorder.functional_only program)))
  in
  let in_order_test =
    Test.make ~name:"in-order 5-stage model"
      (Staged.stage (fun () ->
           ignore (Resim_baseline.In_order.simulate records)))
  in
  let codec_test =
    Test.make ~name:"trace codec encode (fixed)"
      (Staged.stage (fun () -> ignore (Resim_trace.Codec.encode records)))
  in
  ( generated.correct_path,
    [ { name = "resim-engine (trace-driven)"; test = engine_test;
        work_instructions = correct };
      { name = "trace generation (sim-bpred analog)"; test = tracegen_test;
        work_instructions = correct };
      { name = "execution-driven baseline (fused)"; test = fused_test;
        work_instructions = correct };
      { name = "functional only (sim-fast analog)"; test = functional_test;
        work_instructions = correct };
      { name = "in-order 5-stage model"; test = in_order_test;
        work_instructions = correct };
      { name = "trace codec encode (fixed)"; test = codec_test;
        work_instructions = float_of_int (Array.length records) } ] )

let measure_ns_per_run test =
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) ~kde:None () in
  let instance = Toolkit.Instance.monotonic_clock in
  let raw = Benchmark.all cfg [ instance ] test in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols instance raw in
  Hashtbl.fold
    (fun _name ols acc ->
      match Analyze.OLS.estimates ols with
      | Some (ns :: _) -> ns :: acc
      | Some [] | None -> acc)
    results []

let bechamel_section () =
  section "Host throughput (Bechamel, this machine)";
  let correct_path, benches = host_benches () in
  Format.printf
    "One run simulates the gzip kernel at scale 8192 (%d correct-path \
     instructions).@.@.%-38s %14s %12s@." correct_path "mode" "ns/run"
    "host MIPS";
  List.iter
    (fun bench ->
      match measure_ns_per_run bench.test with
      | [ ns ] ->
          let mips =
            if bench.work_instructions > 0.0 && ns > 0.0 then
              bench.work_instructions /. ns *. 1000.0
            else 0.0
          in
          Format.printf "%-38s %14.0f %12.3f@." bench.name ns mips
      | _ -> Format.printf "%-38s %14s %12s@." bench.name "n/a" "n/a")
    benches;
  Format.printf
    "@.The engine row is the per-timing-run cost in a bulk design-space \
     sweep (trace reused);@.the fused row repeats functional work every \
     run, as execution-driven simulators must.@."

let () =
  Format.printf "ReSim reproduction benchmark harness (v%s)@."
    Resim_core.Resim.version;
  reports ();
  let csvs = Resim_reports.Csv_export.write_all ~dir:"." in
  Format.printf "@.machine-readable tables: %s@." (String.concat ", " csvs);
  bechamel_section ();
  Format.printf "@.done.@."
