(** Branch Target Buffer.

    Set-associative tag/target store with LRU replacement; the paper's
    reference configuration is 512 entries, direct-mapped
    ({!default_config}). A lookup miss on a predicted-taken branch is what
    the paper calls a *misfetch*: the front end falls through to the next
    sequential PC and pays the misfetch penalty. *)

type config = { entries : int; associativity : int }

val default_config : config
(** 512 entries, direct-mapped. *)

type t

val create : config -> t
val config : t -> config

val lookup : t -> pc:int -> int option
(** Predicted target for the branch at instruction index [pc], if the
    BTB currently holds one. *)

val update : t -> pc:int -> target:int -> unit
(** Install or refresh the target for [pc] (LRU within the set). *)
