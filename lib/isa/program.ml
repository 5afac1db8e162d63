type t = {
  code : Instruction.t array;
  entry : int;
  symbols : (string * int) list;
  data : (int * int) list;
}

let make ?(entry = 0) ?(symbols = []) ?(data = []) code =
  { code; entry; symbols; data }

let length program = Array.length program.code

let resolve program label = List.assoc label program.symbols

let pp ppf program =
  let name_of index =
    List.filter_map
      (fun (label, target) -> if target = index then Some label else None)
      program.symbols
  in
  Array.iteri
    (fun index instr ->
      List.iter (fun label -> Format.fprintf ppf "%s:@." label)
        (name_of index);
      Format.fprintf ppf "  %4d: %a@." index Instruction.pp instr)
    program.code
