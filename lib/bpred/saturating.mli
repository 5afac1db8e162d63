(** Saturating n-bit counters, the building block of direction
    predictors. A 2-bit counter predicts taken when its value is in the
    upper half of its range. *)

type t

val create : ?bits:int -> ?initial:int -> unit -> t
(** Default 2 bits, initialised to the weakly-taken threshold value. *)

val predict_taken : t -> bool
val train : t -> taken:bool -> unit
(** Increment towards taken, decrement towards not-taken, saturating. *)
