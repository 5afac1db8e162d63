(** Foreign trace-format adapters: the trace frontier.

    Converts line-oriented foreign traces into tagged B/M/O
    {!Record.t} streams, so any simulator or tracer that can dump one
    of two simple text profiles feeds ReSim directly:

    - {b text} — [<PC> <op> <dst> <src1> <src2>] per line (the format
      family used by generated cycle-accurate simulators): PC in hex,
      [op] 0=alu 1=mult 2=divide, registers decimal with [-1] = none.
      Control flow is unmarked; an instruction whose successor PC is
      not PC+4 is reclassified as a taken conditional branch targeting
      the successor, and a later fall-through at a PC already seen
      branching is that branch not taken (so branch directions really
      interleave and the synthesis predictor can mispredict).
    - {b riscv} — [<PC> <INSN> \[mem <ADDR>\]] per line, an
      uncompressed RV32/RV64 instruction-trace profile: the 32-bit
      word is decoded (branch/jal/jalr kinds, B/J-type static targets,
      loads/stores with their effective address, M-extension
      mult/divide), registers come from the rd/rs1/rs2 fields.

    Both profiles tolerate blank lines, [#] comments, CRLF line ends
    and trailing whitespace. Since foreign traces carry no wrong-path
    instructions, the adapter synthesizes them the same way the
    reference generator does: the inferred branch stream runs through
    our own {!Resim_bpred.Predictor}, and every conditional direction
    mispredict emits a tagged block of [wrong_path_limit] sequential
    records down the path the predictor chose. Adapted streams
    therefore lint clean under the RSM-T tag-bit protocol.

    Malformed input surfaces as typed RSM-A diagnostics carrying
    [file:line:col] — never an exception:

    - [RSM-A001] — wrong field count / missing [mem] operand
    - [RSM-A002] — field is not a number
    - [RSM-A003] — value out of domain (op code, register, negative PC)
    - [RSM-A004] — line longer than [max_line_bytes]
    - [RSM-A005] — undecodable RISC-V instruction word
    - [RSM-A006] — no instructions in the input *)

type format = Text | Riscv

val format_to_string : format -> string
val format_of_string : string -> format option

type error = {
  code : string;  (** stable rule identifier, e.g. ["RSM-A002"] *)
  file : string;
  line : int;     (** 1-based source line *)
  col : int;      (** 1-based column of the offending field *)
  reason : string;
}

val error_to_string : error -> string
(** ["file:line:col: [RSM-A002] reason"]. *)

type config = {
  predictor : Resim_bpred.Predictor.config;
  wrong_path_limit : int;
      (** records per synthesized wrong-path block (ROB + IFQ in the
          reference generator) *)
  max_line_bytes : int;  (** lines longer than this are RSM-A004 *)
}

val default_config : config

type t
(** A streaming adapter: pulls lines from its source one at a time
    (one line of lookahead, O(1) memory beyond the synthesized block
    queue), so foreign traces larger than RAM adapt in one pass. *)

val of_channel :
  ?config:config -> format:format -> file:string -> in_channel -> t
(** [file] is used for diagnostics only; the channel is not closed by
    the adapter. *)

val of_string :
  ?config:config -> format:format -> ?file:string -> string -> t

val next_result : t -> (Record.t option, error) result
(** The next adapted record: [Ok None] at end of input, [Error] on the
    first malformed line (sticky — subsequent calls return the same
    error). *)

val pull_exn : t -> unit -> Record.t option
(** Pull closure for the streaming engine path: a malformed line
    raises {!Fault.Trace_fault} with the RSM-A code, matching how codec
    cursors report corrupt streams to robust runners. *)

type stats = {
  lines : int;          (** source lines consumed *)
  instructions : int;   (** correct-path records emitted *)
  wrong_path : int;     (** synthesized wrong-path records *)
  mispredicted : int;   (** conditional mispredicts found *)
}

val stats : t -> stats
