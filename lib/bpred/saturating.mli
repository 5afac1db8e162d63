(** Saturating 2-bit counters, the building block of direction
    predictors. A counter predicts taken when its value is in the upper
    half of its range. *)

type t

val create : unit -> t
(** Initialised to the weakly-taken threshold value. *)

val predict_taken : t -> bool
val train : t -> taken:bool -> unit
(** Increment towards taken, decrement towards not-taken, saturating. *)
