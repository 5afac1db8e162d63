(* gzip analog: LZ77-style match finding over a pseudo-random buffer
   with a rolling two-byte hash and a chained head table. The inner
   match-extension loop branches on data, giving the moderate
   misprediction rate and dependent-load pattern of the real encoder. *)

open Resim_isa
open Asm

let name = "gzip"
let description = "LZ77 hash-chain match finding"

let evaluation_scale = 65536

let program ?(scale = 16384) () =
  let n = max 64 scale in
  let hash_mask = 1023 in
  assemble
    ([ li s0 Builders.region_buffer; li a0 n; li t1 7 ]
    @ Builders.fill_bytes ~label_prefix:"gz" ~base:s0 ~count:a0 ~state:t1
    @ [ (* clear the head table *)
        li s1 Builders.region_table;
        li t0 0;
        li s3 2;
        label "gz_clear";
        sll t3 t0 s3;
        add t3 s1 t3;
        sw Reg.zero 0 t3;
        addi t0 t0 1;
        slti t2 t0 (hash_mask + 1);
        bne t2 Reg.zero "gz_clear";
        (* main scan: i in 0 .. n-2 *)
        li t0 0;
        li s2 0;                  (* total match length found *)
        addi a1 a0 (-1);          (* n - 1 *)
        label "gz_scan";
        add t2 s0 t0;
        lb t3 0 t2;               (* a = buf[i] *)
        lb t4 1 t2;               (* b = buf[i+1] *)
        li t5 31;
        mul t5 t3 t5;
        add t5 t5 t4;
        andi t5 t5 hash_mask;     (* h *)
        sll t5 t5 s3;
        add t5 s1 t5;             (* head slot *)
        lw t6 0 t5;               (* candidate + 1, 0 = none *)
        addi t7 t0 1;
        sw t7 0 t5;               (* head[h] = i + 1 *)
        beq t6 Reg.zero "gz_next";
        addi t6 t6 (-1);          (* candidate position *)
        add t7 s0 t6;
        lb t7 0 t7;               (* buf[cand] *)
        bne t7 t3 "gz_next";
        (* extend the match, bounded to 8 bytes *)
        li v0 1;                  (* len *)
        label "gz_extend";
        slti t7 v0 8;
        beq t7 Reg.zero "gz_extend_done";
        add t7 t0 v0;
        bge t7 a1 "gz_extend_done";
        add t7 s0 t7;
        lb t7 0 t7;               (* buf[i+len] *)
        add t3 s0 t6;
        add t3 t3 v0;
        lb t3 0 t3;               (* buf[cand+len] *)
        bne t7 t3 "gz_extend_done";
        addi v0 v0 1;
        j "gz_extend";
        label "gz_extend_done";
        add s2 s2 v0;
        label "gz_next";
        addi t0 t0 1;
        blt t0 a1 "gz_scan";
        halt ])
