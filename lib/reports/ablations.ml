module Config = Resim_core.Config
module Stats = Resim_core.Stats

let v5 = Resim_fpga.Device.virtex5_xc5vlx50t
let gzip () = Resim_workloads.Workload.find "gzip"

let simulate ~config records =
  Resim_core.Resim.(outcome_exn (run ~config (Records records)))

let gzip_trace ~config =
  let run = Runner.run_kernel ~key:"ablation" ~config ~scale:(Runner.Exact 8192) (gzip ()) in
  run.Runner.generated.records

(* The paper's central claim (§IV): the three internal organizations
   are timing-equivalent at major-cycle granularity and differ only in
   minor cycles per major cycle — same simulated cycles, different
   simulation MIPS. *)
let print_organizations ppf =
  let config = Config.reference in
  let records = gzip_trace ~config in
  Format.fprintf ppf
    "@[<v>Ablation: internal pipeline organization (gzip, 4-wide)@,@,\
     %-10s %6s %14s %14s %10s@," "org" "L" "major cycles" "minor cycles"
    "MIPS V5";
  List.iter
    (fun organization ->
      let config = { config with organization } in
      let outcome = simulate ~config records in
      let majors = Stats.(get major_cycles) outcome.stats in
      Format.fprintf ppf "%-10s %6d %14Ld %14Ld %10.2f@,"
        (Config.organization_name organization)
        (Config.minor_cycle_latency config)
        majors
        (Int64.mul majors (Int64.of_int (Config.minor_cycle_latency config)))
        (Resim_core.Resim.mips outcome ~device:v5))
    [ Config.Simple; Config.Improved; Config.Optimized ];
  Format.fprintf ppf
    "@,(identical major cycles across organizations is the paper's \
     equivalence claim; MIPS scales as 1/L)@]"

let width_config width =
  { Config.reference with
    width;
    ifq_entries = width;
    decouple_entries = width;
    alu_count = width;
    mem_read_ports = max 1 (width / 2);
    mem_write_ports = 1;
    (* Improved organization: valid at every width (Optimized needs
       memory ports <= N-1, impossible at width 1). *)
    organization = Config.Improved }

let area_params (config : Config.t) =
  { Resim_fpga.Area.reference_params with
    width = config.width;
    ifq_entries = config.ifq_entries;
    decouple_entries = config.decouple_entries;
    rob_entries = config.rob_entries;
    lsq_entries = config.lsq_entries }

(* Issue width 1/2/4/8: simulated IPC, simulation MIPS, and modelled
   area; shows the simulation-speed cost of simulating wider
   processors (L grows with N). *)
let print_width_sweep ppf =
  Format.fprintf ppf
    "@[<v>Ablation: simulated issue width (gzip, improved org)@,@,\
     %5s %4s %8s %10s %10s@," "width" "L" "IPC" "MIPS V5" "slices";
  List.iter
    (fun width ->
      let config = width_config width in
      let run =
        Runner.run_kernel ~key:"ablation" ~config
          ~scale:(Runner.Exact 8192) (gzip ())
      in
      let outcome = run.Runner.outcome in
      let area = Resim_fpga.Area.estimate (area_params config) in
      Format.fprintf ppf "%5d %4d %8.3f %10.2f %10d@," width
        (Config.minor_cycle_latency config)
        (Stats.ipc outcome.stats)
        (Resim_core.Resim.mips outcome ~device:v5)
        area.total.slices)
    [ 1; 2; 4; 8 ];
  Format.fprintf ppf "@]"

(* Reorder-buffer size 8/16/32/64 at fixed width: the design-space
   exploration use case ReSim is built for. *)
let print_rob_sweep ppf =
  let base = Config.reference in
  let records = gzip_trace ~config:base in
  Format.fprintf ppf
    "@[<v>Ablation: reorder-buffer size (gzip, 4-wide, perfect \
     memory)@,@,%5s %8s %10s %10s@," "ROB" "IPC" "MIPS V5" "slices";
  List.iter
    (fun rob_entries ->
      let config = { base with rob_entries } in
      let outcome = simulate ~config records in
      let area = Resim_fpga.Area.estimate (area_params config) in
      Format.fprintf ppf "%5d %8.3f %10.2f %10d@," rob_entries
        (Stats.ipc outcome.stats)
        (Resim_core.Resim.mips outcome ~device:v5)
        area.total.slices)
    [ 8; 16; 32; 64 ];
  Format.fprintf ppf "@]"

(* The §IV measurement that motivated serial execution: a parallel
   N-wide implementation costs ~Nx area and is 22 % slower at N = 4.
   Compares modelled simulation throughput per FPGA slice. *)
let print_serial_vs_parallel ppf =
  let config = Config.reference in
  let records = gzip_trace ~config in
  let outcome = simulate ~config records in
  let ipc = Stats.ipc outcome.stats in
  Format.fprintf ppf
    "@[<v>Ablation: serial vs parallel ReSim implementation (model; \
     gzip IPC %.3f)@,@,%-10s %8s %6s %10s %12s %14s@," ipc "impl" "MHz"
    "L" "MIPS V5" "rel. area" "MIPS/slice-rel";
  let serial_mhz = Resim_fpga.Frequency.minor_cycle_mhz v5 Serial in
  let serial_l = Config.minor_cycle_latency config in
  let serial_mips = serial_mhz /. float_of_int serial_l *. ipc in
  let print_row name mhz l area_mult =
    let mips = mhz /. float_of_int l *. ipc in
    Format.fprintf ppf "%-10s %8.1f %6d %10.2f %12.1f %14.2f@," name mhz l
      mips area_mult
      (mips /. area_mult /. (serial_mips /. 1.0))
  in
  print_row "serial" serial_mhz serial_l 1.0;
  let parallel = Resim_fpga.Frequency.Parallel { width = config.width } in
  (* A parallel implementation processes all N slots in one go: one
     minor cycle per stage group (fetch/dispatch/issue/wb/commit). *)
  print_row "parallel"
    (Resim_fpga.Frequency.minor_cycle_mhz v5 parallel)
    5
    (Resim_fpga.Frequency.area_multiplier parallel);
  Format.fprintf ppf
    "@,(paper §IV: parallel 4-wide fetch was 4x the cost and 22%% \
     slower — serial wins on throughput per slice)@]"

(* Trace-format ablation: Fixed (paper-style) vs Compact (delta)
   encodings — bits/instruction and bandwidth demand. *)
let print_encoding ppf =
  Format.fprintf ppf
    "@[<v>Ablation: trace encoding (evaluation-scale kernels)@,@,\
     %-8s %12s %12s %10s@," "SPEC" "fixed b/i" "compact b/i" "saving";
  List.iter
    (fun workload ->
      let run =
        Runner.run_kernel ~key:"table1-left" ~config:Config.reference
          workload
      in
      let records = run.Runner.generated.records in
      let fixed = Resim_trace.Codec.bits_per_instruction ~format:Fixed records in
      let compact =
        Resim_trace.Codec.bits_per_instruction ~format:Compact records
      in
      Format.fprintf ppf "%-8s %12.2f %12.2f %9.1f%%@," run.Runner.kernel
        fixed compact
        (100.0 *. (1.0 -. (compact /. fixed))))
    Resim_workloads.Workload.all;
  Format.fprintf ppf "@]"

(* Predictor sweep on the generator/engine pair: misprediction rate and
   simulated IPC across predictor configurations. *)
let print_predictors ppf =
  let program = Resim_workloads.Workload.program_of (gzip ()) ~scale:8192 () in
  Format.fprintf ppf
    "@[<v>Ablation: branch predictor (gzip)@,@,%-22s %12s %8s %10s@,"
    "predictor" "mispredicts" "IPC" "MIPS V5";
  let predictors =
    [ ("perfect", Resim_bpred.Direction.Perfect);
      ("static taken", Resim_bpred.Direction.Static_taken);
      ("static not-taken", Resim_bpred.Direction.Static_not_taken);
      ("bimodal 2k", Resim_bpred.Direction.Bimodal { table_entries = 2048 });
      ("2-level 4/8/4096", Resim_bpred.Direction.two_level_default);
      ("gshare 12/4096",
       Resim_bpred.Direction.Gshare { history_bits = 12; pht_entries = 4096 })
    ]
  in
  List.iter
    (fun (name, direction) ->
      let predictor =
        { Resim_bpred.Predictor.default_config with direction }
      in
      let config = { Config.reference with predictor } in
      let generator =
        { Resim_tracegen.Generator.predictor;
          wrong_path_limit = 20;
          max_instructions = 20_000_000 }
      in
      let generated = Resim_tracegen.Generator.run ~config:generator program in
      let outcome = simulate ~config generated.records in
      Format.fprintf ppf "%-22s %12d %8.3f %10.2f@," name
        generated.mispredicted_branches
        (Stats.ipc outcome.stats)
        (Resim_core.Resim.mips outcome ~device:v5))
    predictors;
  Format.fprintf ppf "@]"

(* Flat L1 (the paper's memory system) vs an added unified 256 KB L2 on
   the cache-sensitive kernels — an extension study. *)
let print_l2 ppf =
  let l2_config =
    Resim_cache.Cache.Set_associative
      { size_bytes = 256 * 1024; associativity = 8; block_bytes = 64 }
  in
  (* Matched memory latency: without the L2 a miss goes straight to
     memory (1 + 46); with it, an L2 hit costs 6 and an L2 miss the same
     46 in total. *)
  let memory_latency = 46 in
  let flat_config =
    { Config.fast_comparable with
      cache_timing =
        { Resim_cache.Cache.hit_latency = 1; miss_latency = memory_latency } }
  in
  let l2_config_full =
    { flat_config with
      l2cache = Some l2_config;
      l2_timing =
        { Resim_cache.Cache.hit_latency = 6;
          miss_latency = memory_latency - 6 } }
  in
  Format.fprintf ppf
    "@[<v>Ablation: adding a unified 256 KB L2 (2-wide, perfect BP, 32 KB \
     L1s, 46-cycle memory)@,@,%-8s %12s %12s %10s@," "SPEC" "flat MIPS V5"
    "w/ L2 MIPS" "gain";
  List.iter
    (fun workload ->
      let run =
        Runner.run_kernel ~key:"table1-right"
          ~config:Config.fast_comparable workload
      in
      let records = run.Runner.generated.records in
      let flat = simulate ~config:flat_config records in
      let with_l2 = simulate ~config:l2_config_full records in
      let mips outcome = Resim_core.Resim.mips outcome ~device:v5 in
      Format.fprintf ppf "%-8s %12.2f %12.2f %9.1f%%@," run.Runner.kernel
        (mips flat) (mips with_l2)
        (100.0 *. ((mips with_l2 /. mips flat) -. 1.0)))
    Resim_workloads.Workload.all;
  Format.fprintf ppf "@]"

(* On-the-fly co-simulation (FAST-style streaming, §VI future work) vs
   the offline generate-then-simulate pipeline: identical timing,
   bounded buffering. *)
let print_cosim ppf =
  let program = Resim_workloads.Workload.program_of (gzip ()) ~scale:8192 () in
  let cosim = Resim_core.Cosim.run program in
  let batch = Resim_core.Resim.simulate_program program in
  let cycles stats = Stats.get Stats.major_cycles stats in
  Format.fprintf ppf
    "@[<v>Co-simulation (on-the-fly trace, FAST-style; gzip 8192)@,@,\
     offline pipeline: %Ld major cycles@,\
     on-the-fly:       %Ld major cycles (identical: %b)@,\
     peak trace window: %d records (full trace: %d records)@]"
    (cycles batch.stats) (cycles cosim.stats)
    (Int64.equal (cycles batch.stats) (cycles cosim.stats))
    cosim.peak_buffered_records
    (cosim.correct_path + cosim.wrong_path)

(* Out-of-order vs the in-order 5-stage baseline on the same traces. *)
let print_in_order ppf =
  Format.fprintf ppf
    "@[<v>Ablation: out-of-order vs in-order 5-stage (default scales, \
     perfect memory)@,@,%-8s %10s %12s %10s@," "SPEC" "OoO IPC"
    "in-order IPC" "OoO gain";
  List.iter
    (fun workload ->
      let run =
        Runner.run_kernel ~key:"ablation-small" ~config:Config.reference
          ~scale:Runner.Default workload
      in
      let ooo = Stats.ipc run.Runner.outcome.stats in
      let in_order =
        Resim_baseline.In_order.simulate run.Runner.generated.records
      in
      Format.fprintf ppf "%-8s %10.3f %12.3f %9.2fx@," run.Runner.kernel ooo
        in_order.ipc (ooo /. in_order.ipc))
    Resim_workloads.Workload.all;
  Format.fprintf ppf "@]"

(* The full ablation grid: every memoised simulation the ablations and
   Tables 1/3 trigger, as explicit requests. Prewarming this list as one
   domain-parallel sweep makes every subsequent run_kernel call a cache
   hit, so the serial printing below is just formatting. *)
let requests () =
  let table key config =
    List.map
      (fun workload -> Runner.request ~key ~config workload)
      Resim_workloads.Workload.all
  in
  table "table1-left" Config.reference
  @ table "table1-right" Config.fast_comparable
  @ [ Runner.request ~key:"ablation" ~config:Config.reference
        ~scale:(Runner.Exact 8192) (gzip ()) ]
  @ List.map
      (fun width ->
        Runner.request ~key:"ablation" ~config:(width_config width)
          ~scale:(Runner.Exact 8192) (gzip ()))
      [ 1; 2; 4; 8 ]
  @ List.map
      (fun workload ->
        Runner.request ~key:"ablation-small" ~config:Config.reference
          ~scale:Runner.Default workload)
      Resim_workloads.Workload.all

let print_all ppf =
  Runner.prewarm (requests ());
  print_organizations ppf;
  Format.fprintf ppf "@.@.";
  print_width_sweep ppf;
  Format.fprintf ppf "@.@.";
  print_rob_sweep ppf;
  Format.fprintf ppf "@.@.";
  print_serial_vs_parallel ppf;
  Format.fprintf ppf "@.@.";
  print_encoding ppf;
  Format.fprintf ppf "@.@.";
  print_predictors ppf;
  Format.fprintf ppf "@.@.";
  print_l2 ppf;
  Format.fprintf ppf "@.@.";
  print_cosim ppf;
  Format.fprintf ppf "@.@.";
  print_in_order ppf
