(** Architectural machine state with speculative checkpoints.

    Registers, a sparse byte-addressed data memory, the program counter
    and a halt flag. The trace generator executes *wrong-path* code after
    mispredicted branches; {!checkpoint}/{!rollback} provide the required
    undo capability through a write journal, so arbitrarily long wrong
    paths can be unwound exactly. *)

type t

val create : ?program:Program.t -> unit -> t
(** Fresh state: registers zero, memory loaded from the program's [data]
    section, PC at the program entry, stack pointer initialised to
    {!default_stack_base}. *)

val default_stack_base : int

(** {1 Registers} *)

val read_reg : t -> Reg.t -> int
val write_reg : t -> Reg.t -> int -> unit
(** Writing {!Reg.zero} is a no-op. *)

(** {1 Memory}

    Byte-addressed. Words are stored at 4-byte granularity; [read_word]
    of a never-written address is 0. *)

val read_word : t -> int -> int
val write_word : t -> int -> int -> unit
val read_byte : t -> int -> int
val write_byte : t -> int -> int -> unit

(** {1 Control} *)

val pc : t -> int
val set_pc : t -> int -> unit
val halted : t -> bool
val set_halted : t -> bool -> unit
val incr_retired : t -> unit

(** {1 Speculation} *)

type checkpoint

val checkpoint : t -> checkpoint
(** Start (or nest) journaling; every subsequent register/memory/PC/halt
    mutation is recorded until the matching {!rollback}. *)

val rollback : t -> checkpoint -> unit
(** Undo every mutation performed since the checkpoint was taken. *)
