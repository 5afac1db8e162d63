(** Named monotonic counters for long-lived services.

    A fixed table of [Atomic] cells created once at startup and safe
    to increment from any domain with no locking — the job server's
    accepted/rejected/retried/shed/cache-hit metrics flow through one
    of these. The counter set is fixed at {!make}; unknown names raise
    [Invalid_argument] (a typo must not silently mint a new metric). *)

type t

val make : string list -> t
(** Table with the given counter names, all zero. Raises
    [Invalid_argument] on a duplicate name. *)

val incr : t -> string -> unit
val add : t -> string -> int -> unit
val get : t -> string -> int

val snapshot : t -> (string * int) list
(** Point-in-time read of every counter, in [make] order. Each cell is
    read atomically; the snapshot as a whole is not a cross-counter
    transaction. *)
