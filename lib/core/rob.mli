(** Reorder Buffer (the paper's RB): the in-order window of in-flight
    instructions, RUU-style. Head = oldest.

    The representation is exposed for the engine's closure family
    (DESIGN.md §14), which inlines the per-cycle window walks.
    [sequence] is the id the next dispatched entry receives; ids in the
    window are consecutive, so the entry with id [i] sits
    [i - (sequence - length)] places from the ring head. Treat the type
    as private elsewhere. *)

type t = { ring : Entry.t Ring.t; mutable sequence : int }

val create : entries:int -> t
val capacity : t -> int
val length : t -> int
val is_full : t -> bool
val is_empty : t -> bool

val dispatch : t -> Resim_trace.Record.t -> Entry.t
(** Allocate the next entry (fails when full — check {!is_full} first). *)

val head : t -> Entry.t option
val pop_head : t -> Entry.t option
(** Commit: remove the oldest entry. *)

val first : t -> Entry.t
(** [head] without the option — allocation-free (commit re-reads the
    head every cycle); raises [Invalid_argument] when empty. *)

val drop_head : t -> unit
(** [pop_head] discarding the entry; raises [Invalid_argument] when
    empty. *)

val get : t -> int -> Entry.t
(** [get t i]: the entry [i] places from the head. *)

val iter : (Entry.t -> unit) -> t -> unit
(** Oldest to youngest. *)

val find : (Entry.t -> bool) -> t -> Entry.t option

val squash_younger : t -> than_id:int -> int
(** Remove every entry whose id is greater than [than_id]; returns how
    many were removed. *)

val next_id : t -> int
(** The id the next dispatched entry will receive. *)
