(* Benchmark harness: regenerates every table (1-4) and figure (2-4) of
   the paper, runs the ablation studies, and measures host throughput of
   the trace-driven engine against the execution-driven baseline with
   Bechamel.

   Flags:
     --json PATH   also write the engine host-throughput grid (host MIPS
                   per kernel x config) as JSON to PATH —
                   the perf trajectory tracked across PRs
                   (BENCH_engine.json at the repo root)
     --quick       smoke mode: only the (shrunken) host-throughput grid,
                   skipping tables, Bechamel and the sweep comparison *)

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
      work_instructions = float_of_int (Array.length records) } ]

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
  Format.printf
    "One run simulates the gzip kernel at scale 8192 (~60k correct-path \
     instructions).@.@.%-38s %14s %12s@." "mode" "ns/run" "host MIPS";
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
    (host_benches ());
  Format.printf
    "@.The engine row is the per-timing-run cost in a bulk design-space \
     sweep (trace reused);@.the fused row repeats functional work every \
     run, as execution-driven simulators must.@."

(* ------------------------------------------------------------------ *)
(* Serial vs domain-parallel sweep throughput.                         *)

let sweep_section () =
  section "Sweep throughput: serial vs domain-parallel (this machine)";
  let grid =
    List.map Resim_reports.Runner.job_of_request
      (Resim_reports.Ablations.requests ())
  in
  Format.printf
    "full ablation grid: %d jobs; host recommends %d domain(s)@.@."
    (List.length grid)
    (Resim_sweep.Pool.recommended_jobs ());
  let time f =
    let started = Unix.gettimeofday () in
    let result = f () in
    (result, Unix.gettimeofday () -. started)
  in
  let serial_report, serial_wall =
    time (fun () -> Resim_sweep.Sweep.run ~jobs:1 grid)
  in
  let parallel_report, parallel_wall =
    time (fun () -> Resim_sweep.Sweep.run ~jobs:4 grid)
  in
  let serial = Resim_sweep.Sweep.completed serial_report in
  let parallel = Resim_sweep.Sweep.completed parallel_report in
  let cycles (r : Resim_sweep.Sweep.result) =
    Resim_core.Stats.get Resim_core.Stats.major_cycles r.outcome.stats
  in
  let committed (r : Resim_sweep.Sweep.result) =
    Resim_core.Stats.get Resim_core.Stats.committed r.outcome.stats
  in
  let identical =
    List.for_all2
      (fun (a : Resim_sweep.Sweep.result) (b : Resim_sweep.Sweep.result) ->
        Int64.equal (cycles a) (cycles b)
        && Int64.equal (committed a) (committed b)
        && Array.length a.generated.records
           = Array.length b.generated.records)
      serial parallel
  in
  Format.printf "%-16s %10.2f s@." "serial (-j 1)" serial_wall;
  Format.printf
    "%-16s %10.2f s   speedup %.2fx   results identical: %b@."
    "parallel (-j 4)" parallel_wall
    (if parallel_wall > 0.0 then serial_wall /. parallel_wall else 1.0)
    identical;
  Format.printf
    "@.(speedup tracks physical cores; oversubscribing a smaller host \
     costs domain-scheduling and GC overhead, but results stay identical)@.";
  let counts = Resim_sweep.Sweep.counts parallel_report in
  Format.printf
    "@.per-job outcomes: %d ok, %d failed, %d timed out, %d truncated, \
     %d retried@."
    counts.ok counts.failed counts.timed_out counts.truncated counts.retried;
  counts

(* ------------------------------------------------------------------ *)
(* Engine host-throughput grid (kernel x configuration).                *)

let engine_section ~quick ~json ?sweep_outcomes () =
  section "Engine host throughput";
  let measurements = Resim_reports.Hostbench.measure ~quick () in
  Format.printf "%a@." Resim_reports.Hostbench.pp_table measurements;
  match json with
  | Some path ->
      Out_channel.with_open_text path (fun channel ->
          output_string channel
            (Resim_reports.Hostbench.to_json ?sweep_outcomes measurements));
      Format.printf "@.wrote %s@." path
  | None -> ()

let () =
  let json = ref None in
  let quick = ref false in
  Arg.parse
    [ ("--json", Arg.String (fun path -> json := Some path),
       "PATH  write the engine host-MIPS grid as JSON to PATH");
      ("--quick", Arg.Set quick,
       "  smoke mode: host-throughput grid only, small inputs") ]
    (fun anon -> raise (Arg.Bad (Printf.sprintf "unexpected argument %S" anon)))
    "bench [--quick] [--json PATH]";
  Format.printf "ReSim reproduction benchmark harness (v%s)@."
    Resim_core.Resim.version;
  if !quick then engine_section ~quick:true ~json:!json ()
  else begin
    reports ();
    let csvs = Resim_reports.Csv_export.write_all ~dir:"." in
    Format.printf "@.machine-readable tables: %s@."
      (String.concat ", " csvs);
    bechamel_section ();
    (* The sweep runs first so its per-job outcome counts land in the
       JSON the engine section writes. *)
    let sweep_outcomes = sweep_section () in
    engine_section ~quick:false ~json:!json ~sweep_outcomes ()
  end;
  Format.printf "@.done.@."
