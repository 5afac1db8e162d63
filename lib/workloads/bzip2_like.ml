(* bzip2 analog: byte-frequency histogram, prefix sum and rank transform
   over a pseudo-random buffer — streaming array work with predictable
   branches and high ILP, the best case under a perfect memory system and
   noticeably cache-sensitive once L1s are modelled (large sequential
   footprint), matching the published behaviour. *)

open Resim_isa
open Asm

let name = "bzip2"
let description = "histogram + prefix sum + rank transform (BWT flavour)"

let evaluation_scale = 131072

let largest_power_of_two_below n =
  let rec loop p = if p * 2 > n then p else loop (p * 2) in
  loop 1

let program ?(scale = 8192) () =
  let n = max 64 scale in
  let pow2_mask = largest_power_of_two_below n - 1 in
  assemble
    ([ li s0 Builders.region_buffer; li a0 n; li t1 1 ]
    @ Builders.fill_bytes ~label_prefix:"bz" ~base:s0 ~count:a0 ~state:t1
    @ [ (* zero the 256 counters *)
        li s1 Builders.region_table;
        li t0 0;
        li s3 2;
        label "bz_zero";
        sll t3 t0 s3;
        add t3 s1 t3;
        sw Reg.zero 0 t3;
        addi t0 t0 1;
        slti t2 t0 256;
        bne t2 Reg.zero "bz_zero";
        (* histogram pass *)
        li t0 0;
        label "bz_hist";
        add t2 s0 t0;
        lb t3 0 t2;
        sll t4 t3 s3;
        add t4 s1 t4;
        lw t5 0 t4;
        addi t5 t5 1;
        sw t5 0 t4;
        addi t0 t0 1;
        blt t0 a0 "bz_hist";
        (* prefix sum over the counters *)
        li t0 0;
        li t1 0;
        label "bz_prefix";
        sll t3 t0 s3;
        add t3 s1 t3;
        lw t2 0 t3;
        add t1 t1 t2;
        sw t1 0 t3;
        addi t0 t0 1;
        slti t2 t0 256;
        bne t2 Reg.zero "bz_prefix";
        (* rank transform into the aux region *)
        li s2 Builders.region_aux;
        li t0 0;
        label "bz_trans";
        add t2 s0 t0;
        lb t3 0 t2;
        sll t4 t3 s3;
        add t4 s1 t4;
        lw t5 0 t4;
        sll t7 t0 s3;
        add t7 s2 t7;
        sw t5 0 t7;
        addi t0 t0 1;
        blt t0 a0 "bz_trans";
        (* inverse transform: the BWT decode is a serial permutation
           chase — each rank read determines the next position, a
           dependent random walk over the whole rank array that is the
           cache-hostile phase of the real program. n/4 hops keep its
           share of the run comparable to the original's. *)
        li t0 0;                 (* j, word index into the rank array *)
        li t4 0;                 (* hop counter *)
        li v0 0;
        li a1 2;
        srl a1 a0 a1;            (* n / 4 hops *)
        label "bz_inv";
        sll t7 t0 s3;
        add t7 s2 t7;
        lw t5 0 t7;              (* out[j] *)
        add t0 t0 t5;
        add t0 t0 t4;            (* hop counter breaks functional-graph
                                    cycles that would refit the cache *)
        addi t0 t0 1;
        andi t0 t0 pow2_mask;    (* j = (j + out[j] + hop + 1) mod n *)
        add v0 v0 t5;
        addi t4 t4 1;
        blt t4 a1 "bz_inv";
        halt ])
