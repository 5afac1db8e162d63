(** Tiny VHDL emission helpers shared by the generators: entities with
    ports, signal declarations, processes, and the numeric utilities
    (log2 widths) parametric hardware needs. All output is VHDL-93 with
    numeric_std. *)

type port_direction = In | Out

type port = { port_name : string; direction : port_direction; port_type : string }

val bits_for : int -> int
(** Address width for a structure of [n] entries: [ceil(log2 n)], at
    least 1. *)

val header : description:string -> string
(** File banner + library/use clauses. *)

val entity : name:string -> ports:port list -> string

val architecture : name:string -> of_entity:string -> body:string -> string
(** [body] is placed between [begin] and [end]. *)

val std_logic_vector : int -> string
(** ["std_logic_vector(<width-1> downto 0)"]. *)
