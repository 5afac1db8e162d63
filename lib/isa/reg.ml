type t = int

let count = 32

let of_int n =
  if n < 0 || n >= count then
    invalid_arg (Printf.sprintf "Reg.of_int: %d out of range" n)
  else n

let to_int reg = reg
let zero = 0
let ra = 31
let sp = 29
let r = of_int
let equal = Int.equal
