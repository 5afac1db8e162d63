(** Small fixed-range histograms for per-cycle distributions (commit
    width, issue width, queue occupancy). Values above the range are
    clamped into the last bin.

    The representation is exposed for the engine's closure family
    (DESIGN.md §14), which inlines the per-cycle {!observe}. Treat the
    type as private elsewhere. *)

type t = { counts : int array; mutable total : int }

val create : bins:int -> t
(** [bins] ≥ 1; bin [i] counts observations of value [i]. *)

val bins : t -> int
val observe : t -> int -> unit
(** Negative values clamp to 0, values ≥ [bins] to the last bin. *)

val count : t -> int -> int64
val total : t -> int64
val fraction_at : t -> int -> float
val pp : Format.formatter -> t -> unit
(** Non-empty bins as [value:count] pairs. *)
