(* mcf analog (extended workload, not part of the paper's five): network
   simplex flavour — arc-list traversal with indirect node loads and a
   cost-comparison branch that follows the data. Heavily memory-bound
   and branchy, even worse than the parser stand-in. *)

open Resim_isa
open Asm

let name = "mcf"
let description = "arc relaxation over an implicit network (extended)"

let evaluation_scale = 16384

let program ?(scale = 4096) () =
  let arcs = max 64 scale in
  let nodes = max 64 (arcs / 4) in
  let node_mask =
    let rec pow2 p = if p * 2 > nodes then p else pow2 (p * 2) in
    pow2 1 - 1
  in
  assemble
    ([ (* arc array at region_buffer: per arc, two packed node ids
          derived from an LCG; node potentials at region_table *)
       li s0 Builders.region_buffer;
       li a0 arcs;
       li t1 31 ]
    @ Builders.fill_bytes ~label_prefix:"mc" ~base:s0 ~count:a0 ~state:t1
    @ [ (* node potentials: potential[n] = n * 3 + 7 *)
        li s1 Builders.region_table;
        li t0 0;
        li a1 nodes;
        li s3 2;
        label "mc_pot";
        li t2 3;
        mul t2 t0 t2;
        addi t2 t2 7;
        sll t3 t0 s3;
        add t3 s1 t3;
        sw t2 0 t3;
        addi t0 t0 1;
        blt t0 a1 "mc_pot";
        (* relaxation sweep over the arcs *)
        li t0 0;
        li v0 0;                 (* improvements found *)
        li a2 0;                 (* running cost *)
        label "mc_arc";
        add t2 s0 t0;
        lb t3 0 t2;              (* head byte *)
        lb t4 1 t2;              (* tail byte *)
        li t5 5;
        mul t5 t3 t5;
        add t5 t5 t4;
        andi t5 t5 node_mask;    (* head node id *)
        sll t5 t5 s3;
        add t5 s1 t5;
        lw t6 0 t5;              (* potential[head]: indirect load *)
        li t5 11;
        mul t5 t4 t5;
        add t5 t5 t3;
        andi t5 t5 node_mask;    (* tail node id *)
        sll t5 t5 s3;
        add t5 s1 t5;
        lw t7 0 t5;              (* potential[tail]: indirect load *)
        sub t7 t6 t7;            (* reduced cost *)
        add a2 a2 t7;
        (* data-dependent acceptance branch *)
        andi t7 t7 3;
        bne t7 Reg.zero "mc_skip";
        addi v0 v0 1;
        sw a2 0 t5;              (* update the potential *)
        label "mc_skip";
        addi t0 t0 1;
        blt t0 a0 "mc_arc";
        halt ])
