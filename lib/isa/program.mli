(** Assembled program images.

    A program is an array of decoded instructions plus a symbol table and
    optional initial data-memory contents. Instruction indices are the
    unit of PCs throughout the simulator; byte addresses derive from
    {!Instruction.byte_address}. *)

type t = {
  code : Instruction.t array;
  entry : int;                       (** entry instruction index *)
  symbols : (string * int) list;     (** label -> instruction index *)
  data : (int * int) list;           (** initial memory: byte addr, value *)
}

val make :
  ?entry:int -> ?symbols:(string * int) list -> ?data:(int * int) list ->
  Instruction.t array -> t

val length : t -> int
(** Number of instructions. *)
