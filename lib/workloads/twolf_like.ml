(* twolf analog (extended workload, not part of the paper's five):
   standard-cell placement flavour — compute wire-length deltas for
   candidate swaps over a cell array, accept on a data-dependent
   threshold. Arithmetic-heavy with a mid-rate unpredictable branch. *)

open Resim_isa
open Asm

let name = "twolf"
let description = "cell-swap wirelength deltas (extended)"

let evaluation_scale = 12288

let program ?(scale = 4096) () =
  let cells = max 64 scale in
  let cell_mask =
    let rec pow2 p = if p * 2 > cells then p else pow2 (p * 2) in
    pow2 1 - 1
  in
  assemble
    ([ li s0 Builders.region_buffer;
       li a0 cells;
       li t1 17 ]
    @ Builders.fill_bytes ~label_prefix:"tw" ~base:s0 ~count:a0 ~state:t1
    @ [ (* positions: pos[c] = (c * 37) & 1023, as words *)
        li s1 Builders.region_table;
        li t0 0;
        li s3 2;
        label "tw_pos";
        li t2 37;
        mul t2 t0 t2;
        andi t2 t2 1023;
        sll t3 t0 s3;
        add t3 s1 t3;
        sw t2 0 t3;
        addi t0 t0 1;
        blt t0 a0 "tw_pos";
        (* candidate swaps *)
        li t0 0;
        li v0 0;                 (* accepted swaps *)
        label "tw_swap";
        add t2 s0 t0;
        lb t3 0 t2;              (* candidate partner, data-derived *)
        li t4 13;
        mul t4 t3 t4;
        add t4 t4 t0;
        andi t4 t4 cell_mask;    (* partner cell id *)
        sll t5 t0 s3;
        add t5 s1 t5;
        lw t6 0 t5;              (* pos[c] *)
        sll t7 t4 s3;
        add t7 s1 t7;
        lw t7 0 t7;              (* pos[partner] *)
        sub t7 t6 t7;
        mul t7 t7 t7;            (* squared distance = delta proxy *)
        (* accept when the low bits of the delta look favourable *)
        andi t7 t7 7;
        bne t7 Reg.zero "tw_reject";
        addi v0 v0 1;
        sw t6 0 t5;
        label "tw_reject";
        addi t0 t0 1;
        blt t0 a0 "tw_swap";
        halt ])
