(** Shared assembly fragments for the SPEC-like kernels.

    All kernels are deterministic: pseudo-randomness comes from an
    in-ISA linear congruential generator, so the same scale always yields
    the same dynamic instruction stream. *)

open Resim_isa

val fill_bytes :
  label_prefix:string ->
  base:Reg.t ->
  count:Reg.t ->
  state:Reg.t ->
  Asm.stmt list
(** Emit a loop storing [count] pseudo-random bytes at [base]. Clobbers
    registers [t5], [t6], [t7]. *)

val region_buffer : int
(** Byte address of the main data buffer. *)

val region_table : int
(** Byte address of an auxiliary table (hash heads, counters, ...). *)

val region_aux : int
(** Byte address of a second auxiliary region. *)
