(* parser analog: token bucketing into linked lists followed by
   pointer-chasing traversal with data-dependent branches — serially
   dependent loads and poorly predictable branches give it the lowest
   IPC of the five kernels, as in the published table. *)

open Resim_isa
open Asm

let name = "parser"
let description = "linked-list build + pointer-chasing traversal"

let evaluation_scale = 49152

let program ?(scale = 6144) () =
  let n = max 64 scale in
  let buckets = 64 in
  assemble
    ([ li s0 Builders.region_buffer; li a0 n; li t1 99 ]
    @ Builders.fill_bytes ~label_prefix:"pr" ~base:s0 ~count:a0 ~state:t1
    @ [ (* clear bucket heads *)
        li s1 Builders.region_table;
        li t0 0;
        li s3 2;
        label "pr_clear";
        sll t3 t0 s3;
        add t3 s1 t3;
        sw Reg.zero 0 t3;
        addi t0 t0 1;
        slti t2 t0 buckets;
        bne t2 Reg.zero "pr_clear";
        (* build: push node i at the head of bucket (token & 63) *)
        li s2 Builders.region_aux;
        li t0 0;
        li v0 3;                 (* node size shift: 8 bytes *)
        label "pr_build";
        add t2 s0 t0;
        lb t3 0 t2;              (* token *)
        sll t4 t0 v0;
        add t4 s2 t4;            (* node address *)
        sw t3 0 t4;              (* node.value = token *)
        andi t5 t3 (buckets - 1);
        sll t5 t5 s3;
        add t5 s1 t5;            (* head slot *)
        lw t6 0 t5;
        sw t6 4 t4;              (* node.next = old head *)
        sw t4 0 t5;              (* head = node *)
        addi t0 t0 1;
        blt t0 a0 "pr_build";
        (* traverse every bucket, branching on token parity *)
        li t0 0;
        li a1 0;                 (* odd count *)
        li a2 0;                 (* even count *)
        label "pr_bucket";
        sll t3 t0 s3;
        add t3 s1 t3;
        lw t4 0 t3;              (* p = head *)
        label "pr_walk";
        beq t4 Reg.zero "pr_bucket_done";
        lw t5 0 t4;              (* value *)
        (* test a bit outside the bucket mask, so the outcome is not
           constant within a bucket — a genuinely data-dependent branch *)
        andi t6 t5 64;
        beq t6 Reg.zero "pr_even";
        addi a1 a1 1;
        j "pr_walk_next";
        label "pr_even";
        addi a2 a2 1;
        label "pr_walk_next";
        lw t4 4 t4;              (* p = p->next: the pointer chase *)
        j "pr_walk";
        label "pr_bucket_done";
        addi t0 t0 1;
        slti t2 t0 buckets;
        bne t2 Reg.zero "pr_bucket";
        halt ])
