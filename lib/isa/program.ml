type t = {
  code : Instruction.t array;
  entry : int;
  symbols : (string * int) list;
  data : (int * int) list;
}

let make ~entry ~symbols ~data code = { code; entry; symbols; data }

let length program = Array.length program.code
