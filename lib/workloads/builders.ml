open Resim_isa

let region_buffer = 0x1_0000
let region_table = 0x8_0000
let region_aux = 0x10_0000

(* Advance [state] by one LCG step (state = state * 1103515245 + 12345,
   masked to 31 bits). [scratch] is clobbered. *)
let lcg_step ~state ~scratch =
  Asm.
    [ li scratch 1103515245;
      mul state state scratch;
      addi state state 12345;
      li scratch 0x7fffffff;
      and_ state state scratch ]

let fill_bytes ~label_prefix ~base ~count ~state =
  let loop = label_prefix ^ "_fill" in
  let done_ = label_prefix ^ "_fill_done" in
  Asm.(
    [ li t5 0; label loop; bge t5 count done_ ]
    (* Take the byte from the high half of the state: low LCG bits have
       short periods that branch predictors learn. *)
    @ lcg_step ~state ~scratch:t6
    @ [ li t6 16;
        srl t6 state t6;
        andi t6 t6 255;
        add t7 base t5;
        sb t6 0 t7;
        addi t5 t5 1;
        j loop;
        label done_ ])
