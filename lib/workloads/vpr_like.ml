(* vpr analog: placement-cost evaluation on a 2D grid — strided
   neighbour loads, multiply-accumulate arithmetic and a periodic divide
   for normalisation, with moderately predictable control flow. *)

open Resim_isa
open Asm

let name = "vpr"
let description = "grid placement cost: neighbour loads + MAC + divide"

let grid_dim = 64

let evaluation_scale = 6

let program ?(scale = 3) () =
  let sweeps = max 1 scale in
  let cells = grid_dim * grid_dim in
  assemble
    [ (* initialise the grid with LCG words *)
      li s0 Builders.region_buffer;
      li t1 11;
      li t0 0;
      li a0 cells;
      li s3 2;
      label "vp_init";
      li t6 1103515245;
      mul t1 t1 t6;
      addi t1 t1 12345;
      li t6 0x7fffffff;
      and_ t1 t1 t6;
      li t6 16;
      srl t2 t1 t6;
      andi t2 t2 1023;
      sll t3 t0 s3;
      add t3 s0 t3;
      sw t2 0 t3;
      addi t0 t0 1;
      blt t0 a0 "vp_init";
      (* cost sweeps over interior cells *)
      li s1 0;                   (* sweep counter *)
      li a1 sweeps;
      label "vp_sweep";
      li s2 0;                   (* accumulated cost *)
      li t0 grid_dim;            (* start at row 1 *)
      addi a2 a0 (-grid_dim);    (* stop before last row *)
      label "vp_cell";
      sll t3 t0 s3;
      add t3 s0 t3;
      lw t4 0 t3;                (* centre *)
      lw t5 4 t3;                (* right *)
      lw t6 (-4) t3;             (* left *)
      sub t5 t4 t5;
      sub t6 t4 t6;
      mul t5 t5 t5;
      mul t6 t6 t6;
      add s2 s2 t5;
      add s2 s2 t6;
      lw t5 (grid_dim * 4) t3;   (* down *)
      lw t6 (-grid_dim * 4) t3;  (* up *)
      sub t5 t4 t5;
      sub t6 t4 t6;
      mul t5 t5 t5;
      mul t6 t6 t6;
      add s2 s2 t5;
      add s2 s2 t6;
      (* data-dependent normalisation: cells with small centre values
         trigger a divide — an unpredictable branch plus a serialising
         long-latency operation *)
      andi t7 t4 3;
      bne t7 Reg.zero "vp_skip_div";
      li t7 7;
      div s2 s2 t7;
      label "vp_skip_div";
      addi t0 t0 1;
      blt t0 a2 "vp_cell";
      addi s1 s1 1;
      blt s1 a1 "vp_sweep";
      halt ]
