(* vortex analog: an in-memory object store exercised through call/return
   — insert a stream of keyed records into a hashed index, then look a
   sample back up. The subroutine structure stresses the Return Address
   Stack; record-field writes give it the store-heavy profile of the
   original. *)

open Resim_isa
open Asm

let name = "vortex"
let description = "hashed object store: call-heavy insert/lookup"

let evaluation_scale = 16384

let largest_power_of_two_below n =
  let rec loop p = if p * 2 > n then p else loop (p * 2) in
  loop 1

let program ?(scale = 4096) () =
  let n = max 64 scale in
  let slot_mask = largest_power_of_two_below n - 1 in
  let index_mask = 1023 in
  assemble ~entry:"vx_main"
    [ (* insert(a0 = key, a1 = slot number) *)
      label "vx_insert";
      li t6 12;
      srl t5 a0 t6;
      andi t5 t5 index_mask;
      li t6 2;
      sll t5 t5 t6;
      add t5 s1 t5;
      addi t6 a1 1;
      sw t6 0 t5;             (* index[h] = slot + 1 *)
      li t6 4;
      sll t7 a1 t6;
      add t7 s2 t7;           (* record base: 16 bytes each *)
      sw a0 0 t7;             (* .key *)
      addi t6 a0 1;
      sw t6 4 t7;             (* .f1 *)
      add t6 a0 a0;
      sw t6 8 t7;             (* .f2 *)
      sw a1 12 t7;            (* .f3 *)
      jr Reg.ra;
      (* find(a0 = key) -> v0 = 1 if the derived record slot holds the
         key. Probes the (hot) index, then loads the record itself at a
         key-derived position — a random access across the whole store. *)
      label "vx_find";
      li v0 0;
      li t6 12;
      srl t5 a0 t6;
      andi t5 t5 index_mask;
      li t6 2;
      sll t5 t5 t6;
      add t5 s1 t5;
      lw t6 0 t5;             (* index probe *)
      beq t6 Reg.zero "vx_find_done";
      li t7 12;
      srl t6 a0 t7;
      andi t6 t6 slot_mask;   (* record id derived from the key *)
      li t7 4;
      sll t6 t6 t7;
      add t6 s2 t6;
      lw t7 0 t6;             (* stored key *)
      bne t7 a0 "vx_find_done";
      li v0 1;
      label "vx_find_done";
      jr Reg.ra;
      (* main *)
      label "vx_main";
      li s1 Builders.region_table;
      li s2 Builders.region_aux;
      li s0 5;                (* LCG state *)
      li s3 0;                (* i *)
      li a2 n;
      label "vx_ins_loop";
      li t6 1103515245;
      mul s0 s0 t6;
      addi s0 s0 12345;
      li t6 0x7fffffff;
      and_ s0 s0 t6;
      mv a0 s0;
      mv a1 s3;
      jal "vx_insert";
      (* data-dependent bookkeeping for ~1/8 of the keys *)
      li t6 0xf0000;
      and_ t6 a0 t6;
      bne t6 Reg.zero "vx_ins_skip";
      addi a1 a1 1;
      label "vx_ins_skip";
      addi s3 s3 1;
      blt s3 a2 "vx_ins_loop";
      (* lookup pass: re-derive the same key stream *)
      li s0 5;
      li s3 0;
      li v0 0;
      li a1 0;                (* hits *)
      label "vx_find_loop";
      li t6 1103515245;
      mul s0 s0 t6;
      addi s0 s0 12345;
      li t6 0x7fffffff;
      and_ s0 s0 t6;
      mv a0 s0;
      jal "vx_find";
      li t6 0xf0000;
      and_ t6 a0 t6;
      bne t6 Reg.zero "vx_find_skip";
      add a1 a1 v0;
      label "vx_find_skip";
      addi s3 s3 1;
      blt s3 a2 "vx_find_loop";
      halt ]
