(* Bring-your-own program: write assembly as text, parse it, inspect its
   trace profile, then time it three ways (offline trace-driven,
   on-the-fly co-simulation, and across the three internal pipeline
   organizations).

     dune exec examples/custom_asm.exe *)

let source = {|
# Matrix-ish kernel: dot products of pseudo-random rows.
.entry main

main:
    li   s0, 0x2000        # vector A
    li   s1, 0x4000        # vector B
    li   t0, 0             # index
    li   t1, 64            # length
    li   t2, 7             # LCG state

fill:
    li   t3, 1103515245
    mul  t2, t2, t3
    addi t2, t2, 12345
    li   t3, 0x7fffffff
    and  t2, t2, t3
    li   t3, 16
    srl  t4, t2, t3
    andi t4, t4, 255
    sll  t5, t0, t3        # scaled offset (t3=16 still): too big; reuse
    li   t3, 2
    sll  t5, t0, t3
    add  t6, s0, t5
    sw   t4, 0(t6)
    add  t6, s1, t5
    sw   t4, 4(t6)
    addi t0, t0, 1
    blt  t0, t1, fill

    li   t0, 0
    li   v0, 0             # accumulator
dot:
    li   t3, 2
    sll  t5, t0, t3
    add  t6, s0, t5
    lw   t4, 0(t6)
    add  t6, s1, t5
    lw   t7, 4(t6)
    mul  t4, t4, t7
    add  v0, v0, t4
    addi t0, t0, 1
    blt  t0, t1, dot
    sw   v0, 0x6000(zero)
    halt
|}

let () =
  let program = Resim_isa.Parser.parse source in
  Format.printf "parsed %d instructions@.@."
    (Resim_isa.Program.length program);

  (* Trace profile before timing anything. *)
  let records = Resim_tracegen.Generator.records program in
  Format.printf "%a@.@." Resim_trace.Profile.pp_report records;

  (* Offline vs on-the-fly: identical timing, bounded memory. *)
  let offline = Resim_core.Resim.(outcome_exn (run (Records records))) in
  let cosim = Resim_core.Cosim.run program in
  Format.printf
    "offline: %Ld cycles; co-simulation: %Ld cycles (window %d records)@.@."
    (Resim_core.Stats.get Resim_core.Stats.major_cycles offline.stats)
    (Resim_core.Stats.get Resim_core.Stats.major_cycles cosim.stats)
    cosim.peak_buffered_records;

  (* The three internal organizations: same simulated cycles, different
     simulation speed. *)
  List.iter
    (fun organization ->
      let config = { Resim_core.Config.reference with organization } in
      let outcome =
        Resim_core.Resim.(outcome_exn (run ~config (Records records)))
      in
      Format.printf "%-10s L=%d  %Ld major cycles  %.2f MIPS on V5@."
        (Resim_core.Config.organization_name organization)
        (Resim_core.Config.minor_cycle_latency config)
        (Resim_core.Stats.get Resim_core.Stats.major_cycles outcome.stats)
        (Resim_core.Resim.mips outcome
           ~device:Resim_fpga.Device.virtex5_xc5vlx50t))
    [ Resim_core.Config.Simple; Resim_core.Config.Improved;
      Resim_core.Config.Optimized ]
