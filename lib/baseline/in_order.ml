(* Stall cycles of the 5-stage pipeline. Its D-cache is perfect, so a
   memory access never stalls beyond the load-use hazard. *)
let load_use_stall = 1
let mult_stall = 2
let div_stall = 9
let taken_branch_bubble = 1
let mispredict_penalty = 3

type result = { instructions : int64; cycles : int64; ipc : float }

let simulate records =
  let cycles = ref 0L in
  let instructions = ref 0L in
  let add n = cycles := Int64.add !cycles (Int64.of_int n) in
  (* Destination register of the previous instruction if it was a load,
     for load-use detection. *)
  let pending_load_dest = ref 0 in
  let in_wrong_block = ref false in
  Array.iter
    (fun (record : Resim_trace.Record.t) ->
      if record.wrong_path then begin
        (* One penalty per wrong-path block: the in-order front end
           squashes the block wholesale at resolution. *)
        if not !in_wrong_block then add mispredict_penalty;
        in_wrong_block := true
      end
      else begin
        in_wrong_block := false;
        instructions := Int64.add !instructions 1L;
        add 1;
        let uses_pending =
          !pending_load_dest > 0
          && (record.src1 = !pending_load_dest
             || record.src2 = !pending_load_dest)
        in
        if uses_pending then add load_use_stall;
        pending_load_dest := 0;
        (match record.payload with
        | Resim_trace.Record.Other { op_class = Resim_trace.Record.Mult } ->
            add mult_stall
        | Resim_trace.Record.Other { op_class = Resim_trace.Record.Divide } ->
            add div_stall
        | Resim_trace.Record.Other { op_class = Resim_trace.Record.Alu } -> ()
        | Resim_trace.Record.Branch { taken; _ } ->
            if taken then add taken_branch_bubble
        | Resim_trace.Record.Memory { is_load; _ } ->
            if is_load then pending_load_dest := record.dest)
      end)
    records;
  let ipc =
    if Int64.equal !cycles 0L then 0.0
    else Int64.to_float !instructions /. Int64.to_float !cycles
  in
  { instructions = !instructions; cycles = !cycles; ipc }
