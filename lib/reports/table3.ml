type row = {
  benchmark : string;
  bits_per_instr : float;
  throughput_mips : float;
  trace_mbytes_s : float;
  wrong_path_overhead : float;
}

let v4 = Resim_fpga.Device.virtex4_xc4vlx40

let measure workload =
  (* Same configuration as Table 1 left, so the memoised run is shared. *)
  let run =
    Runner.run_kernel ~key:"table1-left" ~config:Resim_core.Config.reference
      workload
  in
  let stats = run.Runner.outcome.stats in
  let fetched = Resim_core.Stats.(get fetched) stats in
  let wrong = Resim_core.Stats.(get fetched_wrong_path) stats in
  let mips = Runner.mips_wrong_path run ~device:v4 in
  { benchmark = run.Runner.kernel;
    bits_per_instr = run.Runner.outcome.bits_per_instruction;
    throughput_mips = mips;
    trace_mbytes_s =
      Resim_core.Resim.trace_bandwidth_mbytes run.Runner.outcome ~device:v4;
    wrong_path_overhead =
      (if Int64.equal fetched 0L then 0.0
       else Int64.to_float wrong /. Int64.to_float fetched) }

let average rows =
  let n = float_of_int (List.length rows) in
  let sum f = List.fold_left (fun acc row -> acc +. f row) 0.0 rows /. n in
  { benchmark = "Average";
    bits_per_instr = sum (fun r -> r.bits_per_instr);
    throughput_mips = sum (fun r -> r.throughput_mips);
    trace_mbytes_s = sum (fun r -> r.trace_mbytes_s);
    wrong_path_overhead = sum (fun r -> r.wrong_path_overhead) }

let rows () =
  let measured = List.map measure Resim_workloads.Workload.all in
  measured @ [ average measured ]

let print ppf =
  Format.fprintf ppf
    "@[<v>Table 3: ReSim throughput statistics (perfect memory, \
     Virtex-4)@,@,%-8s | %19s | %21s | %21s | %s@,"
    "SPEC" "bits/instr (o/p)" "sim MIPS incl WP (o/p)"
    "trace MB/s (o/p)" "WP overhead";
  List.iter
    (fun row ->
      let paper =
        if row.benchmark = "Average" then Paper_data.table3_average
        else
          List.find
            (fun (p : Paper_data.table3_row) -> p.benchmark3 = row.benchmark)
            Paper_data.table3
      in
      Format.fprintf ppf
        "%-8s | %8.2f / %8.2f | %10.2f / %8.2f | %10.2f / %8.2f | %8.1f%%@,"
        row.benchmark row.bits_per_instr paper.bits_per_instr
        row.throughput_mips paper.throughput_mips row.trace_mbytes_s
        paper.trace_mbytes_s
        (100.0 *. row.wrong_path_overhead))
    (rows ());
  Format.fprintf ppf
    "@,(paper: misprediction cost about 10%% of trace instructions; \
     1.1 Gb/s average demand)@]"
