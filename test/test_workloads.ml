(* Tests for the five SPEC-like kernels and the public workload API. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let test_registry () =
  check int "five kernels" 5 (List.length Resim_workloads.Workload.all);
  check bool "paper order" true
    (Resim_workloads.Workload.names
    = [ "gzip"; "bzip2"; "parser"; "vortex"; "vpr" ]);
  check bool "find works" true
    (Resim_workloads.Workload.name_of
       (Resim_workloads.Workload.find "parser")
    = "parser");
  Alcotest.check_raises "unknown kernel" Not_found (fun () ->
      ignore (Resim_workloads.Workload.find "nonesuch"))

let small_scale name =
  (* Scales chosen so each kernel runs in well under a second. *)
  match name with "vpr" -> 1 | _ -> 512

let test_extended_kernels () =
  check int "two extended kernels" 2
    (List.length Resim_workloads.Workload.extended);
  List.iter
    (fun workload ->
      let name = Resim_workloads.Workload.name_of workload in
      let program =
        Resim_workloads.Workload.program_of workload ~scale:512 ()
      in
      let machine = Resim_isa.Machine.create program in
      let executed =
        Resim_isa.Interpreter.run ~max_steps:2_000_000 machine program
      in
      check bool (name ^ " halts") true (Resim_isa.Machine.halted machine);
      check bool (name ^ " does real work") true (executed > 1000);
      let outcome = Resim_core.Resim.simulate_program program in
      let ipc = Resim_core.Stats.ipc outcome.stats in
      check bool (name ^ " plausible IPC") true (ipc > 0.5 && ipc < 4.0))
    Resim_workloads.Workload.extended

let test_kernels_terminate () =
  List.iter
    (fun workload ->
      let name = Resim_workloads.Workload.name_of workload in
      let program =
        Resim_workloads.Workload.program_of workload
          ~scale:(small_scale name) ()
      in
      let machine = Resim_isa.Machine.create program in
      let executed =
        Resim_isa.Interpreter.run ~max_steps:2_000_000 machine program
      in
      check bool (name ^ " halts") true (Resim_isa.Machine.halted machine);
      check bool (name ^ " does real work") true (executed > 1000))
    Resim_workloads.Workload.all

let test_kernels_simulate_end_to_end () =
  List.iter
    (fun workload ->
      let name = Resim_workloads.Workload.name_of workload in
      let program =
        Resim_workloads.Workload.program_of workload
          ~scale:(small_scale name) ()
      in
      let outcome = Resim_core.Resim.simulate_program program in
      let ipc = Resim_core.Stats.ipc outcome.stats in
      check bool (name ^ " has plausible IPC") true (ipc > 0.5 && ipc < 4.0))
    Resim_workloads.Workload.all

let test_kernel_character () =
  (* The kernels must keep their calibrated relative character at small
     scale: the bzip2 stand-in out-runs the parser stand-in (streaming
     vs pointer chasing), as in Table 1. *)
  let ipc_of name scale =
    let workload = Resim_workloads.Workload.find name in
    let program = Resim_workloads.Workload.program_of workload ~scale () in
    Resim_core.Stats.ipc (Resim_core.Resim.simulate_program program).stats
  in
  let bzip2 = ipc_of "bzip2" 4096 in
  let parser = ipc_of "parser" 4096 in
  check bool "bzip2 faster than parser (perfect memory)" true
    (bzip2 > parser)

let test_deterministic_programs () =
  let build () =
    let w = Resim_workloads.Workload.find "vortex" in
    let program = Resim_workloads.Workload.program_of w ~scale:256 () in
    Resim_tracegen.Generator.records program
  in
  let a = build () and b = build () in
  check bool "kernel traces deterministic" true
    (Array.for_all2 Resim_trace.Record.equal a b)

let suite =
  [ ("workloads",
     [ Alcotest.test_case "registry" `Quick test_registry;
       Alcotest.test_case "termination" `Quick test_kernels_terminate;
       Alcotest.test_case "end-to-end" `Slow test_kernels_simulate_end_to_end;
       Alcotest.test_case "relative character" `Slow test_kernel_character;
       Alcotest.test_case "determinism" `Quick test_deterministic_programs;
       Alcotest.test_case "extended kernels" `Quick test_extended_kernels ])
  ]
