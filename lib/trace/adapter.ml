module Opcode = Resim_isa.Opcode
module Predictor = Resim_bpred.Predictor

type format = Text | Riscv

let format_to_string = function Text -> "text" | Riscv -> "riscv"

let format_of_string = function
  | "text" -> Some Text
  | "riscv" -> Some Riscv
  | _ -> None

type error = {
  code : string;
  file : string;
  line : int;
  col : int;
  reason : string;
}

let error_to_string e =
  Printf.sprintf "%s:%d:%d: [%s] %s" e.file e.line e.col e.code e.reason

(* Local exception used to short-circuit line parsing; never escapes the
   adapter — every public entry point returns it as a value. *)
exception Bad_line of error

type config = {
  predictor : Predictor.config;
  wrong_path_limit : int;
  max_line_bytes : int;
}

let default_config =
  { predictor = Predictor.default_config;
    wrong_path_limit = 16 + 4;
    max_line_bytes = 4096 }

(* Foreign PCs are byte addresses; records carry instruction indices.
   Both profiles are fixed-width 4-byte instruction streams, so the
   index is pc/4, folded into the codec's 30-bit PC field. *)
let pc_mask = (1 lsl 30) - 1
let index_of_pc pc = (pc lsr 2) land pc_mask
let addr_mask = (1 lsl 32) - 1

(* One parsed line, before branch classification (which needs one line
   of lookahead: taken-ness is inferred from the next PC). *)
type shape =
  | Plain of Record.op_class
  | Mem of { is_load : bool; address : int }
  | Ctl of { kind : Opcode.branch_kind; target : int option }

type parsed = {
  index : int;
  dest : int;
  src1 : int;
  src2 : int;
  shape : shape;
}

(* --- tokenizing ----------------------------------------------------- *)

(* Split on runs of spaces/tabs, keeping 1-based start columns for
   diagnostics. A trailing '\r' (CRLF input) and trailing whitespace are
   tolerated silently. *)
let tokenize line =
  let line =
    let n = String.length line in
    if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line
  in
  let n = String.length line in
  let out = ref [] in
  let i = ref 0 in
  while !i < n do
    while !i < n && (line.[!i] = ' ' || line.[!i] = '\t') do incr i done;
    if !i < n then begin
      let start = !i in
      while !i < n && line.[!i] <> ' ' && line.[!i] <> '\t' do incr i done;
      out := (String.sub line start (!i - start), start + 1) :: !out
    end
  done;
  List.rev !out

let bad ~file ~line ~col ~code fmt =
  Printf.ksprintf
    (fun reason -> raise (Bad_line { code; file; line; col; reason }))
    fmt

let parse_hex ~file ~line ~what (token, col) =
  let literal =
    if String.length token > 1 && (token.[1] = 'x' || token.[1] = 'X')
       && token.[0] = '0'
    then token
    else "0x" ^ token
  in
  match int_of_string_opt literal with
  | Some v when v >= 0 -> v
  | Some v -> bad ~file ~line ~col ~code:"RSM-A003" "%s %d is negative" what v
  | None ->
      bad ~file ~line ~col ~code:"RSM-A002" "%s %S is not a hex number" what
        token

let parse_int ~file ~line ~what (token, col) =
  match int_of_string_opt token with
  | Some v -> v
  | None ->
      bad ~file ~line ~col ~code:"RSM-A002" "%s %S is not a number" what token

(* Foreign register fields: -1 means "none" (our register 0); larger
   files than ours fold into the 32-register namespace. *)
let parse_reg ~file ~line ~what token =
  let v = parse_int ~file ~line ~what token in
  if v < -1 then
    bad ~file ~line ~col:(snd token) ~code:"RSM-A003"
      "%s register %d is out of domain (minimum -1)" what v
  else if v = -1 then 0
  else v mod Resim_isa.Reg.count

(* --- text profile ---------------------------------------------------
   <PC> <op> <dst> <src1> <src2>
   PC hex (0x optional), op 0=alu 1=mult 2=divide, registers decimal
   with -1 = none. Branches are not marked in the file: an instruction
   whose successor PC is not PC+4 is reclassified as a taken
   conditional branch targeting the successor. *)

let parse_text ~file ~line tokens =
  match tokens with
  | [ pc; op; dst; s1; s2 ] ->
      let pc = parse_hex ~file ~line ~what:"PC" pc in
      let opv = parse_int ~file ~line ~what:"op" op in
      let op_class =
        match opv with
        | 0 -> Record.Alu
        | 1 -> Record.Mult
        | 2 -> Record.Divide
        | n ->
            bad ~file ~line ~col:(snd op) ~code:"RSM-A003"
              "op %d is out of domain (0=alu 1=mult 2=divide)" n
      in
      { index = index_of_pc pc;
        dest = parse_reg ~file ~line ~what:"dst" dst;
        src1 = parse_reg ~file ~line ~what:"src1" s1;
        src2 = parse_reg ~file ~line ~what:"src2" s2;
        shape = Plain op_class }
  | _ ->
      bad ~file ~line ~col:1 ~code:"RSM-A001"
        "expected 5 fields (<PC> <op> <dst> <src1> <src2>), got %d"
        (List.length tokens)

(* --- RISC-V instruction-trace profile -------------------------------
   <PC> <INSN> [mem <ADDR>]
   PC and the 32-bit instruction word in hex; loads/stores carry their
   effective address in the optional "mem" operand. Uncompressed
   RV32/RV64 only (insn[1:0] must be 11). *)

let b_immediate insn =
  let v =
    (((insn lsr 31) land 0x1) lsl 12)
    lor (((insn lsr 7) land 0x1) lsl 11)
    lor (((insn lsr 25) land 0x3f) lsl 5)
    lor (((insn lsr 8) land 0xf) lsl 1)
  in
  if v land (1 lsl 12) <> 0 then v - (1 lsl 13) else v

let j_immediate insn =
  let v =
    (((insn lsr 31) land 0x1) lsl 20)
    lor (((insn lsr 12) land 0xff) lsl 12)
    lor (((insn lsr 20) land 0x1) lsl 11)
    lor (((insn lsr 21) land 0x3ff) lsl 1)
  in
  if v land (1 lsl 20) <> 0 then v - (1 lsl 21) else v

let parse_riscv ~file ~line tokens =
  let pc_tok, insn_tok, mem =
    match tokens with
    | [ pc; insn ] -> (pc, insn, None)
    | [ pc; insn; (("mem", _) as kw); addr ] -> (pc, insn, Some (kw, addr))
    | _ ->
        bad ~file ~line ~col:1 ~code:"RSM-A001"
          "expected <PC> <INSN> [mem <ADDR>], got %d fields"
          (List.length tokens)
  in
  let pc = parse_hex ~file ~line ~what:"PC" pc_tok in
  let insn = parse_hex ~file ~line ~what:"instruction" insn_tok in
  if insn > 0xffff_ffff then
    bad ~file ~line ~col:(snd insn_tok) ~code:"RSM-A005"
      "instruction word %x wider than 32 bits" insn;
  if insn land 0x3 <> 0x3 then
    bad ~file ~line ~col:(snd insn_tok) ~code:"RSM-A005"
      "compressed or invalid instruction word %08x (insn[1:0] must be 11)"
      insn;
  let address =
    match mem with
    | None -> None
    | Some (_, addr) ->
        Some (parse_hex ~file ~line ~what:"mem address" addr land addr_mask)
  in
  let opcode = insn land 0x7f in
  let rd = (insn lsr 7) land 0x1f in
  let funct3 = (insn lsr 12) land 0x7 in
  let rs1 = (insn lsr 15) land 0x1f in
  let rs2 = (insn lsr 20) land 0x1f in
  let funct7 = (insn lsr 25) land 0x7f in
  let index = index_of_pc pc in
  let require_mem what =
    match address with
    | Some a -> a
    | None ->
        bad ~file ~line ~col:1 ~code:"RSM-A001" "%s line is missing 'mem <ADDR>'"
          what
  in
  let link r = r = 1 || r = 5 in
  let plain ?(dest = rd) ?(src1 = rs1) ?(src2 = rs2) shape =
    { index; dest; src1; src2; shape }
  in
  match opcode with
  | 0x63 ->
      (* conditional branch: static target from the B-type immediate *)
      plain ~dest:0
        (Ctl { kind = Cond; target = Some (index_of_pc (pc + b_immediate insn)) })
  | 0x6f ->
      let kind : Opcode.branch_kind = if link rd then Call else Jump in
      plain ~src1:0 ~src2:0
        (Ctl { kind; target = Some (index_of_pc (pc + j_immediate insn)) })
  | 0x67 ->
      let kind : Opcode.branch_kind =
        if (not (link rd)) && link rs1 then Ret
        else if link rd then Call
        else Indirect
      in
      plain ~src2:0 (Ctl { kind; target = None })
  | 0x03 -> plain ~src2:0 (Mem { is_load = true; address = require_mem "load" })
  | 0x23 ->
      plain ~dest:0 (Mem { is_load = false; address = require_mem "store" })
  | 0x33 when funct7 = 1 ->
      plain (Plain (if funct3 < 4 then Record.Mult else Record.Divide))
  | _ -> plain (Plain Record.Alu)

(* --- streaming adapter ----------------------------------------------
   Pulls lines, classifies with one line of lookahead, and synthesizes
   wrong-path blocks by running the inferred branch stream through our
   own predictor — the same protocol as the reference generator: on a
   conditional direction mispredict, the front end runs
   [wrong_path_limit] sequential instructions down the path the
   predictor chose. *)

type stats = {
  lines : int;
  instructions : int;
  wrong_path : int;
  mispredicted : int;
}

type t = {
  file : string;
  format : format;
  config : config;
  read_line : unit -> string option;
  predictor : Predictor.t;
  branch_targets : (int, int) Hashtbl.t;
      (* PCs seen as taken (inferred) branches, with their last taken
         target: a later fall-through at such a PC is a not-taken
         conditional, not a plain op. O(distinct branch PCs) — the only
         state in the adapter that grows with the trace. *)
  mutable line : int;          (* lines consumed so far *)
  mutable ahead : parsed option;
  mutable primed : bool;       (* [ahead] is valid (maybe None = EOF) *)
  mutable pending : Record.t list;
  mutable instructions : int;
  mutable wrong : int;
  mutable mispredicted : int;
  mutable failed : error option;
}

let create ?(config = default_config) ~format ~file read_line =
  { file;
    format;
    config;
    read_line;
    predictor = Predictor.create config.predictor;
    branch_targets = Hashtbl.create 64;
    line = 0;
    ahead = None;
    primed = false;
    pending = [];
    instructions = 0;
    wrong = 0;
    mispredicted = 0;
    failed = None }

let of_channel ?config ~format ~file ic =
  create ?config ~format ~file (fun () ->
      match input_line ic with
      | line -> Some line
      | exception End_of_file -> None)

let of_string ?config ~format ?(file = "<string>") data =
  let lines = String.split_on_char '\n' data in
  (* [split_on_char] leaves a final "" for newline-terminated input;
     drop it so it does not count as a (blank) line. *)
  let lines =
    match List.rev lines with
    | "" :: rest -> List.rev rest
    | _ -> lines
  in
  let remaining = ref lines in
  create ?config ~format ~file (fun () ->
      match !remaining with
      | [] -> None
      | line :: rest ->
          remaining := rest;
          Some line)

let stats t =
  { lines = t.line;
    instructions = t.instructions;
    wrong_path = t.wrong;
    mispredicted = t.mispredicted }

let blank tokens = tokens = []

let comment = function
  | (tok, _) :: _ -> String.length tok > 0 && tok.[0] = '#'
  | [] -> false

(* Read and parse the next instruction line, skipping blanks and
   [#] comments. Raises [Bad_line]. *)
let rec parse_next t =
  match t.read_line () with
  | None -> None
  | Some raw ->
      t.line <- t.line + 1;
      if String.length raw > t.config.max_line_bytes then
        bad ~file:t.file ~line:t.line ~col:(t.config.max_line_bytes + 1)
          ~code:"RSM-A004" "line exceeds %d bytes" t.config.max_line_bytes;
      let tokens = tokenize raw in
      if blank tokens || comment tokens then parse_next t
      else
        Some
          (match t.format with
          | Text -> parse_text ~file:t.file ~line:t.line tokens
          | Riscv -> parse_riscv ~file:t.file ~line:t.line tokens)

let wrong_path_block t wrong_pc =
  let limit = t.config.wrong_path_limit in
  let block =
    List.init limit (fun i ->
        { Record.pc = (wrong_pc + i) land pc_mask;
          wrong_path = true;
          dest = 0;
          src1 = 0;
          src2 = 0;
          payload = Record.Other { op_class = Record.Alu } })
  in
  t.wrong <- t.wrong + limit;
  t.pending <- t.pending @ block

(* Classify [cur] given the lookahead [next] and emit it (plus any
   synthesized wrong-path block onto [pending]). *)
let emit t cur next =
  let fallthrough = cur.index + 1 in
  let discontinuous =
    match next with Some n -> n.index <> fallthrough | None -> false
  in
  let payload =
    match cur.shape with
    | Mem { is_load; address } -> Record.Memory { is_load; address }
    | Plain op_class -> (
        (* Unmarked control flow (text profile): a PC break means this
           instruction transferred control — a taken conditional. A
           fall-through at a PC previously seen branching is the same
           branch not taken (otherwise every inferred branch would be
           taken and no direction could ever mispredict). *)
        match next with
        | Some n when discontinuous ->
            Hashtbl.replace t.branch_targets cur.index n.index;
            Record.Branch { kind = Opcode.Cond; taken = true; target = n.index }
        | _ -> (
            match Hashtbl.find_opt t.branch_targets cur.index with
            | Some target ->
                Record.Branch { kind = Opcode.Cond; taken = false; target }
            | None -> Record.Other { op_class }))
    | Ctl { kind; target } ->
        let taken =
          match kind with
          | Opcode.Cond -> discontinuous
          | Jump | Call | Ret | Indirect -> true
        in
        let target =
          match next with
          | Some n when taken -> n.index
          | _ -> (
              match target with Some s -> s | None -> fallthrough)
        in
        Record.Branch { kind; taken; target }
  in
  let record =
    { Record.pc = cur.index;
      wrong_path = false;
      dest = cur.dest;
      src1 = cur.src1;
      src2 = cur.src2;
      payload }
  in
  t.instructions <- t.instructions + 1;
  (match payload with
  | Record.Branch { kind; taken; target } ->
      let prediction =
        Predictor.predict t.predictor ~pc:cur.index ~kind ~fallthrough
          ~actual_taken:taken ~actual_target:target
      in
      Predictor.update t.predictor ~pc:cur.index ~kind ~taken ~target;
      let direction_wrong = prediction.taken <> taken in
      Predictor.record_resolution t.predictor ~correct:(not direction_wrong);
      if direction_wrong && kind = Opcode.Cond then begin
        t.mispredicted <- t.mispredicted + 1;
        let wrong_pc = if prediction.taken then target else fallthrough in
        wrong_path_block t wrong_pc
      end
  | Record.Memory _ | Record.Other _ -> ());
  record

let next_result t =
  match t.failed with
  | Some error -> Error error
  | None -> (
      match t.pending with
      | record :: rest ->
          t.pending <- rest;
          Ok (Some record)
      | [] -> (
          try
            if not t.primed then begin
              t.ahead <- parse_next t;
              t.primed <- true;
              if t.ahead = None then
                bad ~file:t.file ~line:1 ~col:1 ~code:"RSM-A006"
                  "no instructions in %s trace" (format_to_string t.format)
            end;
            match t.ahead with
            | None -> Ok None
            | Some cur ->
                let next = parse_next t in
                t.ahead <- next;
                Ok (Some (emit t cur next))
          with Bad_line error ->
            t.failed <- Some error;
            Error error))

(* Pull interface for the streaming engine path: adapter errors surface
   as the same typed {!Fault.Trace_fault} the codec cursors raise, so
   robust runners report them uniformly. *)
let pull_exn t () =
  match next_result t with
  | Ok next -> next
  | Error error ->
      Fault.fail ~code:error.code ~offset:t.instructions
        (error_to_string error)
