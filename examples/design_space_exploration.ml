(* Design-space exploration: the workload ReSim exists for.

   One trace of the gzip-like kernel is generated once, then re-timed
   under a grid of processor configurations (ROB size x issue width x
   memory system). With FPGA-speed simulation each point of such a grid
   costs milliseconds of simulated wall-clock; here we also report what
   each configuration costs in FPGA area, the two axes an architect
   trades off.

     dune exec examples/design_space_exploration.exe *)

module Config = Resim_core.Config

let v5 = Resim_fpga.Device.virtex5_xc5vlx50t

let configuration ~width ~rob_entries ~perfect_memory =
  let dcache =
    if perfect_memory then Resim_cache.Cache.Perfect
    else Resim_cache.Cache.l1_32k_8way_64b
  in
  { Config.reference with
    width;
    ifq_entries = width;
    decouple_entries = width;
    alu_count = width;
    rob_entries;
    lsq_entries = max 4 (rob_entries / 2);
    mem_read_ports = max 1 (width / 2);
    organization = Config.Improved;
    icache = dcache;
    dcache }

let () =
  let gzip = Resim_workloads.Workload.find "gzip" in
  let program = Resim_workloads.Workload.program_of gzip ~scale:16384 () in
  let generated = Resim_tracegen.Generator.run program in
  Format.printf
    "gzip trace: %d records; re-timing it across 16 configurations@.@."
    (Array.length generated.records);
  Format.printf "%5s %5s %8s | %8s %10s %10s@." "width" "ROB" "memory"
    "IPC" "MIPS(V5)" "slices";
  List.iter
    (fun width ->
      List.iter
        (fun rob_entries ->
          List.iter
            (fun perfect_memory ->
              let config =
                configuration ~width ~rob_entries ~perfect_memory
              in
              let outcome =
                Resim_core.Resim.(
                  outcome_exn (run ~config (Records generated.records)))
              in
              let area =
                Resim_fpga.Area.estimate
                  { Resim_fpga.Area.reference_params with
                    width;
                    ifq_entries = width;
                    decouple_entries = width;
                    rob_entries;
                    lsq_entries = config.lsq_entries;
                    with_dcache = not perfect_memory;
                    with_icache = not perfect_memory }
              in
              Format.printf "%5d %5d %8s | %8.3f %10.2f %10d@." width
                rob_entries
                (if perfect_memory then "perfect" else "32K L1")
                (Resim_core.Stats.ipc outcome.stats)
                (Resim_core.Resim.mips outcome ~device:v5)
                area.total_with_caches.slices)
            [ true; false ])
        [ 8; 16; 32; 64 ])
    [ 2; 4 ];
  Format.printf
    "@.Each row re-used the same trace: trace-driven timing turns a \
     design sweep@.into pure re-timing, the bulk-simulation use case of \
     §I.@."
