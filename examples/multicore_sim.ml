(* Multi-core simulation — the paper's future-work direction ("it is
   possible to fit multiple ReSim instances in a single FPGA and
   simulate multi-core systems").

   Four ReSim cores, each with its own kernel trace, stepped in lockstep
   by Resim_multicore.System, with the area model answering how many
   instances each device holds and the throughput model giving the
   aggregate simulation speed.

     dune exec examples/multicore_sim.exe *)

module System = Resim_multicore.System

let core_workloads = [ "gzip"; "parser"; "vortex"; "vpr" ]

let () =
  let specs =
    List.map
      (fun name ->
        let workload = Resim_workloads.Workload.find name in
        let program = Resim_workloads.Workload.program_of workload () in
        { System.name;
          feed =
            Resim_core.Resim.Records
              (Resim_tracegen.Generator.records program);
          config = Resim_core.Config.reference })
      core_workloads
  in
  let system = System.create specs in
  (match System.run system with
  | `Finished -> ()
  | `Truncated -> Format.printf "warning: cycle budget exhausted@.");
  Format.printf "%a@." System.pp system;
  Format.printf "aggregate committed: %Ld over %Ld lockstep cycles@.@."
    (System.aggregate_committed system)
    (System.elapsed_cycles system);
  List.iter
    (fun device ->
      let instances =
        Resim_fpga.Area.instances_fitting (System.area system) device
      in
      Format.printf
        "%-10s holds %2d such cores (this system of %d fits: %b); \
         aggregate %.1f MIPS at %g MHz@."
        device.Resim_fpga.Device.name instances
        (System.core_count system)
        (System.fits system device)
        (System.aggregate_mips system ~device)
        device.Resim_fpga.Device.minor_cycle_mhz)
    Resim_fpga.Device.all
