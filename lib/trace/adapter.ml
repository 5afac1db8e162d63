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
   of lookahead: taken-ness is inferred from the next PC). A [Ctl]
   target is the static target's index, or -1 when only the next line
   can tell (jalr). *)
type shape =
  | Plain of Record.op_class
  | Mem of { is_load : bool; address : int }
  | Ctl of { kind : Opcode.branch_kind; target : int }

type parsed = {
  index : int;
  dest : int;
  src1 : int;
  src2 : int;
  shape : shape;
}

type stats = {
  lines : int;
  instructions : int;
  wrong_path : int;
  mispredicted : int;
}

(* --- the line window ------------------------------------------------
   Input arrives through one reusable window, refilled from its source
   (a channel's [input], or a blit from the string for [of_string]). A
   line is a [head, stop) range in the window and its fields are
   offsets into it, parsed in place: no string, token list or copy per
   line. The window holds at least [max_line_bytes + 2] bytes, so a
   line that fits is always found whole, and one that does not is
   RSM-A004 as soon as [max_line_bytes + 1] of its bytes are buffered.
   Memory is the window, whatever the input's size or line lengths. *)

let window_bytes = 65536

(* The profiles need at most five fields; fields past them are only
   counted, for RSM-A001. *)
let max_fields = 5

type t = {
  file : string;
  format : format;
  config : config;
  read : bytes -> int -> int -> int;
      (* [input]-like: at most [len] bytes into the window at [pos];
         0 at end of input *)
  window : bytes;
  mutable head : int;        (* first unconsumed byte *)
  mutable tail : int;        (* end of the buffered bytes *)
  mutable at_end : bool;     (* [read] has returned 0 *)
  mutable line_start : int;  (* window offset of the current line *)
  mutable fields : int;      (* its field count, past [max_fields] too *)
  starts : int array;        (* window offsets of its first fields *)
  stops : int array;
  predictor : Predictor.t;
  branch_targets : (int, int) Hashtbl.t;
      (* PCs seen as taken (inferred) branches, with their last taken
         target: a later fall-through at such a PC is a not-taken
         conditional, not a plain op. O(distinct branch PCs) — the only
         state in the adapter that grows with the trace. *)
  mutable line : int;          (* lines consumed so far *)
  mutable ahead : parsed option;
  mutable primed : bool;       (* [ahead] is valid (maybe None = EOF) *)
  mutable wrong_left : int;    (* synthesized records still to emit *)
  mutable wrong_pc : int;      (* the next one's index *)
  mutable instructions : int;
  mutable wrong : int;
  mutable mispredicted : int;
  mutable failed : error option;
}

let error_at t ~line ~col ~code fmt =
  Printf.ksprintf
    (fun reason -> raise (Bad_line { code; file = t.file; line; col; reason }))
    fmt

(* An error on the current line. *)
let bad t ~col ~code fmt = error_at t ~line:t.line ~col ~code fmt

(* Compact the unconsumed bytes to the front and read more behind them.
   They are at most [max_line_bytes] long (a longer line is RSM-A004
   first), so the window always has room. *)
let refill t =
  let pending = t.tail - t.head in
  Bytes.blit t.window t.head t.window 0 pending;
  t.head <- 0;
  t.tail <- pending;
  let read = t.read t.window pending (Bytes.length t.window - pending) in
  if read = 0 then t.at_end <- true else t.tail <- pending + read

let is_blank c = c = ' ' || c = '\t'

(* Record the fields of [start, stop): runs of bytes other than spaces
   and tabs. *)
let split_fields t start stop =
  let window = t.window in
  let fields = ref 0 and i = ref start in
  while !i < stop do
    if is_blank (Bytes.unsafe_get window !i) then incr i
    else begin
      let first = !i in
      while !i < stop && not (is_blank (Bytes.unsafe_get window !i)) do
        incr i
      done;
      if !fields < max_fields then begin
        t.starts.(!fields) <- first;
        t.stops.(!fields) <- !i
      end;
      incr fields
    end
  done;
  t.fields <- !fields

(* Make [head, stop) the current line, minus one trailing '\r' (CRLF
   input), and resume after it at [next]. *)
let take_line t stop next =
  let start = t.head in
  let stop =
    if stop > start && Bytes.get t.window (stop - 1) = '\r' then stop - 1
    else stop
  in
  t.line <- t.line + 1;
  t.line_start <- start;
  t.head <- next;
  split_fields t start stop

(* The first newline in [i, stop), or [stop]. *)
let rec newline window i stop =
  if i = stop || Bytes.unsafe_get window i = '\n' then i
  else newline window (i + 1) stop

(* Advance to the next line, scanning for its end from [from]. False at
   end of input; raises RSM-A004 on a line over [max_line_bytes] (its
   length counts a trailing '\r'). *)
let rec find_line t from =
  let longest = t.config.max_line_bytes in
  let limit = Int.min t.tail (t.head + longest + 1) in
  let stop = newline t.window from limit in
  if stop < limit then begin
    take_line t stop (stop + 1);
    true
  end
  else if t.tail - t.head > longest then begin
    t.line <- t.line + 1;
    bad t ~col:(longest + 1) ~code:"RSM-A004" "line exceeds %d bytes" longest
  end
  else if t.at_end then
    if t.head = t.tail then false
    else begin
      (* a final line without a newline *)
      take_line t t.tail t.tail;
      true
    end
  else begin
    let scanned = stop - t.head in
    refill t;
    find_line t scanned
  end

let create ?(config = default_config) ~format ~file read =
  (* The scan's bounds ([find_line]) rely on the window holding a whole
     line and on [head + max_line_bytes + 1] not overflowing. *)
  if config.max_line_bytes < 0
     || config.max_line_bytes > Sys.max_string_length - 2
  then invalid_arg "Adapter: max_line_bytes out of range";
  { file;
    format;
    config;
    read;
    window = Bytes.create (Int.max window_bytes (config.max_line_bytes + 2));
    head = 0;
    tail = 0;
    at_end = false;
    line_start = 0;
    fields = 0;
    starts = Array.make max_fields 0;
    stops = Array.make max_fields 0;
    predictor = Predictor.create config.predictor;
    branch_targets = Hashtbl.create 64;
    line = 0;
    ahead = None;
    primed = false;
    wrong_left = 0;
    wrong_pc = 0;
    instructions = 0;
    wrong = 0;
    mispredicted = 0;
    failed = None }

let of_channel ~format ~file ic = create ~format ~file (input ic)

let of_string ?config ~format ?(file = "<string>") data =
  let next = ref 0 in
  create ?config ~format ~file (fun window pos len ->
      let read = Int.min len (String.length data - !next) in
      Bytes.blit_string data !next window pos read;
      next := !next + read;
      read)

let stats t =
  { lines = t.line;
    instructions = t.instructions;
    wrong_path = t.wrong;
    mispredicted = t.mispredicted }

(* --- fields ----------------------------------------------------------
   Hex fields of the plain shape, an optional 0x/0X and 1-15 hex digits
   (which cannot overflow), parse in place. Every other field goes, as
   a string, to [parse_hex] or [parse_int], which define the grammar
   ([int_of_string]'s literals: underscores, a '+', 0b/0o prefixes,
   leading zeros) and every message. *)

let col t k = t.starts.(k) - t.line_start + 1

let field t k =
  Bytes.sub_string t.window t.starts.(k) (t.stops.(k) - t.starts.(k))

let parse_hex t ~col ~what token =
  let literal =
    if String.length token > 1 && (token.[1] = 'x' || token.[1] = 'X')
       && token.[0] = '0'
    then token
    else "0x" ^ token
  in
  match int_of_string_opt literal with
  | Some v when v >= 0 -> v
  | Some v -> bad t ~col ~code:"RSM-A003" "%s %d is negative" what v
  | None ->
      bad t ~col ~code:"RSM-A002" "%s %S is not a hex number" what token

let parse_int t ~col ~what token =
  match int_of_string_opt token with
  | Some v -> v
  | None -> bad t ~col ~code:"RSM-A002" "%s %S is not a number" what token

(* The value of the hex digits in [i, stop), or -1 at a byte that is
   not one. *)
let rec hex_digits window i stop acc =
  if i = stop then acc
  else
    match Bytes.unsafe_get window i with
    | '0' .. '9' as c ->
        hex_digits window (i + 1) stop ((acc lsl 4) lor (Char.code c - 48))
    | 'a' .. 'f' as c ->
        hex_digits window (i + 1) stop ((acc lsl 4) lor (Char.code c - 87))
    | 'A' .. 'F' as c ->
        hex_digits window (i + 1) stop ((acc lsl 4) lor (Char.code c - 55))
    | _ -> -1

let hex_field t ~what k =
  let window = t.window and start = t.starts.(k) and stop = t.stops.(k) in
  let first =
    if stop - start > 1
       && Bytes.unsafe_get window start = '0'
       && (match Bytes.unsafe_get window (start + 1) with
          | 'x' | 'X' -> true
          | _ -> false)
    then start + 2
    else start
  in
  let value =
    if stop - first >= 1 && stop - first <= 15 then
      hex_digits window first stop 0
    else -1
  in
  if value >= 0 then value else parse_hex t ~col:(col t k) ~what (field t k)

let int_field t ~what k = parse_int t ~col:(col t k) ~what (field t k)

(* Foreign register fields: -1 means "none" (our register 0); larger
   files than ours fold into the 32-register namespace. *)
let reg_field t ~what k =
  let v = int_field t ~what k in
  if v < -1 then
    bad t ~col:(col t k) ~code:"RSM-A003"
      "%s register %d is out of domain (minimum -1)" what v
  else if v = -1 then 0
  else v mod Resim_isa.Reg.count

(* --- text profile ---------------------------------------------------
   <PC> <op> <dst> <src1> <src2>
   PC hex (0x optional), op 0=alu 1=mult 2=divide, registers decimal
   with -1 = none. Branches are not marked in the file: an instruction
   whose successor PC is not PC+4 is reclassified as a taken
   conditional branch targeting the successor. *)

let parse_text t =
  if t.fields <> 5 then
    bad t ~col:1 ~code:"RSM-A001"
      "expected 5 fields (<PC> <op> <dst> <src1> <src2>), got %d" t.fields;
  let pc = hex_field t ~what:"PC" 0 in
  let shape =
    match int_field t ~what:"op" 1 with
    | 0 -> Plain Record.Alu
    | 1 -> Plain Record.Mult
    | 2 -> Plain Record.Divide
    | n ->
        bad t ~col:(col t 1) ~code:"RSM-A003"
          "op %d is out of domain (0=alu 1=mult 2=divide)" n
  in
  (* Registers are checked src2, src1, dst: a line with several bad
     ones reports its src2. *)
  let src2 = reg_field t ~what:"src2" 4 in
  let src1 = reg_field t ~what:"src1" 3 in
  let dest = reg_field t ~what:"dst" 2 in
  { index = index_of_pc pc; dest; src1; src2; shape }

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

let is_mem_keyword t k =
  let start = t.starts.(k) in
  t.stops.(k) - start = 3
  && Bytes.get t.window start = 'm'
  && Bytes.get t.window (start + 1) = 'e'
  && Bytes.get t.window (start + 2) = 'm'

(* [address] is -1 when the line has no mem operand. *)
let require_mem t ~what address =
  if address < 0 then
    bad t ~col:1 ~code:"RSM-A001" "%s line is missing 'mem <ADDR>'" what
  else address

let is_link r = r = 1 || r = 5

let parse_riscv t =
  let fields = t.fields in
  if not (fields = 2 || (fields = 4 && is_mem_keyword t 2)) then
    bad t ~col:1 ~code:"RSM-A001"
      "expected <PC> <INSN> [mem <ADDR>], got %d fields" fields;
  let pc = hex_field t ~what:"PC" 0 in
  let insn = hex_field t ~what:"instruction" 1 in
  if insn > 0xffff_ffff then
    bad t ~col:(col t 1) ~code:"RSM-A005"
      "instruction word %x wider than 32 bits" insn;
  if insn land 0x3 <> 0x3 then
    bad t ~col:(col t 1) ~code:"RSM-A005"
      "compressed or invalid instruction word %08x (insn[1:0] must be 11)"
      insn;
  let address =
    if fields = 4 then hex_field t ~what:"mem address" 3 land addr_mask
    else -1
  in
  let opcode = insn land 0x7f in
  let rd = (insn lsr 7) land 0x1f in
  let funct3 = (insn lsr 12) land 0x7 in
  let rs1 = (insn lsr 15) land 0x1f in
  let rs2 = (insn lsr 20) land 0x1f in
  let funct7 = (insn lsr 25) land 0x7f in
  let index = index_of_pc pc in
  match opcode with
  | 0x63 ->
      (* conditional branch: static target from the B-type immediate *)
      { index; dest = 0; src1 = rs1; src2 = rs2;
        shape =
          Ctl { kind = Cond; target = index_of_pc (pc + b_immediate insn) } }
  | 0x6f ->
      { index; dest = rd; src1 = 0; src2 = 0;
        shape =
          Ctl
            { kind = (if is_link rd then Call else Jump);
              target = index_of_pc (pc + j_immediate insn) } }
  | 0x67 ->
      let kind : Opcode.branch_kind =
        if (not (is_link rd)) && is_link rs1 then Ret
        else if is_link rd then Call
        else Indirect
      in
      { index; dest = rd; src1 = rs1; src2 = 0;
        shape = Ctl { kind; target = -1 } }
  | 0x03 ->
      { index; dest = rd; src1 = rs1; src2 = 0;
        shape =
          Mem { is_load = true; address = require_mem t ~what:"load" address }
      }
  | 0x23 ->
      { index; dest = 0; src1 = rs1; src2 = rs2;
        shape =
          Mem
            { is_load = false; address = require_mem t ~what:"store" address }
      }
  | 0x33 when funct7 = 1 ->
      { index; dest = rd; src1 = rs1; src2 = rs2;
        shape = (if funct3 < 4 then Plain Record.Mult else Plain Record.Divide)
      }
  | _ -> { index; dest = rd; src1 = rs1; src2 = rs2; shape = Plain Record.Alu }

(* --- streaming adapter ----------------------------------------------
   Pulls lines, classifies with one line of lookahead, and synthesizes
   wrong-path blocks by running the inferred branch stream through our
   own predictor — the same protocol as the reference generator: on a
   conditional direction mispredict, the front end runs
   [wrong_path_limit] sequential instructions down the path the
   predictor chose. *)

(* Read and parse the next instruction line, skipping blanks and
   [#] comments. Raises [Bad_line]. *)
let rec parse_next t =
  if not (find_line t t.head) then None
  else if t.fields = 0 || Bytes.get t.window t.starts.(0) = '#' then
    parse_next t
  else
    Some (match t.format with Text -> parse_text t | Riscv -> parse_riscv t)

let wrong_path_block t wrong_pc =
  t.wrong_pc <- wrong_pc;
  t.wrong_left <- t.config.wrong_path_limit;
  t.wrong <- t.wrong + t.config.wrong_path_limit

(* Classify [cur] given the lookahead [next] and emit it (queueing any
   synthesized wrong-path block behind it). *)
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
          | _ -> if target >= 0 then target else fallthrough
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
      if direction_wrong && kind = Opcode.Cond then begin
        t.mispredicted <- t.mispredicted + 1;
        let wrong_pc = if prediction.taken then target else fallthrough in
        wrong_path_block t wrong_pc
      end
  | Record.Memory _ | Record.Other _ -> ());
  record

let next_wrong_path t =
  let record =
    { Record.pc = t.wrong_pc land pc_mask;
      wrong_path = true;
      dest = 0;
      src1 = 0;
      src2 = 0;
      payload = Record.Other { op_class = Record.Alu } }
  in
  t.wrong_pc <- t.wrong_pc + 1;
  t.wrong_left <- t.wrong_left - 1;
  record

let next_result t =
  match t.failed with
  | Some error -> Error error
  | None when t.wrong_left > 0 -> Ok (Some (next_wrong_path t))
  | None -> (
      try
        if not t.primed then begin
          t.ahead <- parse_next t;
          t.primed <- true;
          if t.ahead = None then
            error_at t ~line:1 ~col:1 ~code:"RSM-A006"
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
        Error error)

(* Pull interface for the streaming engine path: adapter errors surface
   as the same typed {!Fault.Trace_fault} the codec cursors raise, so
   robust runners report them uniformly. *)
let pull_exn t () =
  match next_result t with
  | Ok next -> next
  | Error error ->
      Fault.fail ~code:error.code ~offset:t.instructions
        (error_to_string error)
