(* Data memory is a pair of int-keyed tables: monomorphic equality and
   an integer hash instead of the polymorphic [Hashtbl]'s caml_hash and
   caml_equal on every load and store. The hash folds the two address
   bits a word-aligned key always has clear into the low bits that pick
   the bucket. *)
module Memory = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash addr = addr lxor (addr lsr 2)
end)

type undo =
  | Reg_was of Reg.t * int
  | Word_was of int * int option
  | Byte_was of int * int option
  | Pc_was of int
  | Halted_was of bool

type t = {
  regs : int array;
  words : int Memory.t;           (* word-aligned byte addr -> value *)
  bytes : int Memory.t;           (* byte addr -> value, for lb/sb *)
  mutable pc : int;
  mutable halted : bool;
  mutable journal : undo list;
  mutable journal_len : int;
  mutable journaling : int;       (* nesting depth of live checkpoints *)
}

type checkpoint = { mark : int }
(* [mark] is the journal length when the checkpoint was taken; rollback
   undoes entries until the journal shrinks back to [mark]. *)

let default_stack_base = 0x7f_f000

let create (program : Program.t) =
  let m =
    { regs = Array.make Reg.count 0;
      words = Memory.create 1024;
      bytes = Memory.create 64;
      pc = program.entry;
      halted = false;
      journal = [];
      journal_len = 0;
      journaling = 0 }
  in
  m.regs.(Reg.to_int Reg.sp) <- default_stack_base;
  List.iter
    (fun (addr, value) -> Memory.replace m.words (addr land lnot 3) value)
    program.data;
  m

(* Every mutator tests [journaling] before it builds its undo entry, so
   the correct path, which runs with no checkpoint live, allocates
   none. *)
let note m entry =
  m.journal <- entry :: m.journal;
  m.journal_len <- m.journal_len + 1

let read_reg m reg = m.regs.(Reg.to_int reg)

let write_reg m reg value =
  if not (Reg.equal reg Reg.zero) then begin
    if m.journaling > 0 then note m (Reg_was (reg, m.regs.(Reg.to_int reg)));
    m.regs.(Reg.to_int reg) <- value
  end

let align addr = addr land lnot 3

let read_word m addr =
  match Memory.find m.words (align addr) with
  | value -> value
  | exception Not_found -> 0

let write_word m addr value =
  let addr = align addr in
  if m.journaling > 0 then note m (Word_was (addr, Memory.find_opt m.words addr));
  Memory.replace m.words addr value

let read_byte m addr =
  match Memory.find m.bytes addr with
  | value -> value
  | exception Not_found -> read_word m addr land 0xff

let write_byte m addr value =
  if m.journaling > 0 then note m (Byte_was (addr, Memory.find_opt m.bytes addr));
  Memory.replace m.bytes addr (value land 0xff)

let pc m = m.pc

let set_pc m value =
  if m.journaling > 0 then note m (Pc_was m.pc);
  m.pc <- value

let halted m = m.halted

let set_halted m value =
  if m.journaling > 0 then note m (Halted_was m.halted);
  m.halted <- value

let checkpoint m =
  m.journaling <- m.journaling + 1;
  { mark = m.journal_len }

let undo_one m = function
  | Reg_was (reg, value) -> m.regs.(Reg.to_int reg) <- value
  | Word_was (addr, Some value) -> Memory.replace m.words addr value
  | Word_was (addr, None) -> Memory.remove m.words addr
  | Byte_was (addr, Some value) -> Memory.replace m.bytes addr value
  | Byte_was (addr, None) -> Memory.remove m.bytes addr
  | Pc_was value -> m.pc <- value
  | Halted_was value -> m.halted <- value

let rec unwind m target =
  if m.journal_len > target then
    match m.journal with
    | [] -> m.journal_len <- 0
    | entry :: rest ->
        m.journal <- rest;
        m.journal_len <- m.journal_len - 1;
        undo_one m entry;
        unwind m target

let reset_if_idle m =
  if m.journaling = 0 then begin
    m.journal <- [];
    m.journal_len <- 0
  end

let release m = m.journaling <- (if m.journaling > 0 then m.journaling - 1 else 0)

let rollback m cp =
  unwind m cp.mark;
  release m;
  reset_if_idle m
