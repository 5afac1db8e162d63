(** Architectural registers of the PISA-like ISA.

    Thirty-two integer registers. [r0] is hardwired to zero: writes to it
    are discarded, reads always return 0. A few registers have
    conventional roles mirroring the MIPS/PISA ABI (stack pointer, return
    address, ...), used by the assembler EDSL and the workloads. *)

type t = private int
(** A register number in [0, 31]. *)

val of_int : int -> t
(** [of_int n] is register [n]. Raises [Invalid_argument] unless
    [0 <= n < count]. *)

val to_int : t -> int

val count : int
(** Number of architectural registers (32). *)

val zero : t
(** [r0], hardwired to zero. *)

val ra : t
(** Return-address register ([r31] by convention). *)

val sp : t
(** Stack-pointer register ([r29] by convention). *)

val r : int -> t
(** Shorthand for {!of_int}. *)

val equal : t -> t -> bool
