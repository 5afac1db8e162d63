(** Functional interpreter for the PISA-like ISA.

    [step] executes one instruction and reports everything a trace-driven
    timing simulator needs to know about it: its class, its control-flow
    outcome and its effective address. It performs no timing of its own —
    timing is the job of the ReSim engine. *)

(** Control-flow outcome of an executed instruction. *)
type control = {
  kind : Opcode.branch_kind;
  taken : bool;
  target : int;  (** instruction-index target actually followed when
                     taken; for not-taken branches the would-be target *)
}

(** Everything observed while executing one instruction. *)
type observation = {
  index : int;                    (** instruction index (PC) executed *)
  instr : Instruction.t;
  effective_address : int option; (** byte address for loads/stores *)
  control : control option;
}

type outcome =
  | Stepped of observation
  | Halted_
      (** The machine was already halted, a [Halt] executed, or the PC ran
          off the program image. *)

val step : Machine.t -> Program.t -> outcome
(** Execute one instruction at the machine's PC, mutating the machine
    (journaled when a checkpoint is live). [Jr] through {!Reg.ra} is
    classified as [Ret]; other [Jr]/[Jalr] are [Indirect]. *)

val run : ?max_steps:int -> Machine.t -> Program.t -> int
(** Run until halt or [max_steps] (default 10_000_000); returns the
    number of instructions executed. *)
