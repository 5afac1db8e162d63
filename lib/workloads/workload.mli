(** Registry of the five SPECINT CPU2000 stand-in kernels used throughout
    the evaluation (gzip, bzip2, parser, vortex, vpr — the five programs
    of Table 1). *)

type t = (module Kernel_sig.S)

val all : t list
(** In the paper's table order: gzip, bzip2, parser, vortex, vpr. *)

val extended : t list
(** Additional kernels beyond the paper's five (mcf, twolf stand-ins),
    for broader design-space studies; not part of the regenerated
    tables. *)

val find : string -> t
(** Lookup by name across {!all} and {!extended}; raises [Not_found]. *)

val names : string list

val program_of : t -> ?scale:int -> unit -> Resim_isa.Program.t
val name_of : t -> string
val description_of : t -> string
