type op_class = Alu | Mult | Divide

type payload =
  | Branch of {
      kind : Resim_isa.Opcode.branch_kind;
      taken : bool;
      target : int;
    }
  | Memory of { is_load : bool; address : int }
  | Other of { op_class : op_class }

type t = {
  pc : int;
  wrong_path : bool;
  dest : int;
  src1 : int;
  src2 : int;
  payload : payload;
}

let is_branch r = match r.payload with Branch _ -> true | Memory _ | Other _ -> false
let is_memory r = match r.payload with Memory _ -> true | Branch _ | Other _ -> false

let is_load r =
  match r.payload with
  | Memory { is_load; _ } -> is_load
  | Branch _ | Other _ -> false

let is_store r =
  match r.payload with
  | Memory { is_load; _ } -> not is_load
  | Branch _ | Other _ -> false

(* [r0] reads and writes are no dependency, so they encode as 0, the
   same as an absent register. *)
let reg_field = function
  | Some reg -> Resim_isa.Reg.to_int reg
  | None -> 0

let of_observation ~wrong_path (obs : Resim_isa.Interpreter.observation) =
  let instr = obs.instr in
  let payload =
    match (obs.control, obs.effective_address) with
    | Some { kind; taken; target }, _ -> Branch { kind; taken; target }
    | None, Some address ->
        let is_load =
          match Resim_isa.Opcode.op_class instr.op with
          | Load -> true
          | Store -> false
          | Int_alu | Int_mult | Int_div | Ctrl -> false
        in
        Memory { is_load; address }
    | None, None ->
        let op_class =
          match Resim_isa.Opcode.op_class instr.op with
          | Int_mult -> Mult
          | Int_div -> Divide
          | Int_alu | Load | Store | Ctrl -> Alu
        in
        Other { op_class }
  in
  (* The sources actually read, in order: a missing or [r0] first
     source moves the second one up. *)
  let first = reg_field instr.src1 and second = reg_field instr.src2 in
  { pc = obs.index;
    wrong_path;
    dest = reg_field instr.dest;
    src1 = (if first = 0 then second else first);
    src2 = (if first = 0 then 0 else second);
    payload }

let equal a b = a = b

let pp_kind ppf (kind : Resim_isa.Opcode.branch_kind) =
  Format.pp_print_string ppf
    (match kind with
    | Cond -> "cond" | Jump -> "jump" | Call -> "call"
    | Ret -> "ret" | Indirect -> "ind")

let pp ppf r =
  let tag = if r.wrong_path then "*" else " " in
  match r.payload with
  | Branch { kind; taken; target } ->
      Format.fprintf ppf "%sB pc=%d %a %s -> %d" tag r.pc pp_kind kind
        (if taken then "taken" else "not-taken") target
  | Memory { is_load; address } ->
      Format.fprintf ppf "%sM pc=%d %s @%#x" tag r.pc
        (if is_load then "load" else "store") address
  | Other { op_class } ->
      Format.fprintf ppf "%sO pc=%d %s" tag r.pc
        (match op_class with Alu -> "alu" | Mult -> "mult" | Divide -> "div")
