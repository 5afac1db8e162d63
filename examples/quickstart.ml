(* Quickstart: assemble a tiny program, generate its trace, run the
   ReSim timing engine, and express the result as the paper does.

     dune exec examples/quickstart.exe *)

open Resim_isa

(* Sum an array of 64 words through a pointer walk, with a data-
   dependent branch so the predictor has something to do. *)
let program =
  Asm.(
    assemble
      [ li s0 0x1000;          (* array base *)
        li t0 0;               (* i *)
        li t1 0;               (* even sum *)
        li t2 0;               (* odd sum *)
        li s1 64;
        li s2 2;
        (* initialise the array: a[i] = 7i + 3 *)
        label "init";
        li t3 7;
        mul t3 t0 t3;
        addi t3 t3 3;
        sll t4 t0 s2;
        add t4 s0 t4;
        sw t3 0 t4;
        addi t0 t0 1;
        blt t0 s1 "init";
        (* sum with a parity-dependent branch *)
        li t0 0;
        label "sum";
        sll t4 t0 s2;
        add t4 s0 t4;
        lw t3 0 t4;
        andi t5 t3 1;
        beq t5 Reg.zero "even";
        add t2 t2 t3;
        j "next";
        label "even";
        add t1 t1 t3;
        label "next";
        addi t0 t0 1;
        blt t0 s1 "sum";
        halt ])

let () =
  (* 1. Trace generation: the sim-bpred analog runs the program and
     inserts tagged wrong-path blocks after mispredicted branches. *)
  let generated = Resim_tracegen.Generator.run program in
  Format.printf "trace: %d records (%d correct path, %d wrong path)@."
    (Array.length generated.records)
    generated.correct_path generated.wrong_path;

  (* 2. Timing simulation with the reference 4-wide processor. *)
  let outcome =
    Resim_core.Resim.(outcome_exn (run (Records generated.records)))
  in
  Format.printf "@.%a@." Resim_core.Resim.pp_outcome outcome;

  (* 3. The paper's metric: simulation speed at the FPGA's minor-cycle
     frequency. *)
  List.iter
    (fun device ->
      Format.printf "simulation speed on %s: %.2f MIPS@."
        device.Resim_fpga.Device.name
        (Resim_core.Resim.mips outcome ~device))
    Resim_fpga.Device.all
