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
val length : t -> int
val is_full : t -> bool
val is_empty : t -> bool

val dispatch : t -> Resim_trace.Record.t -> Entry.t
(** Allocate the next entry (fails when full — check {!is_full} first). *)

val first : t -> Entry.t
(** The oldest entry — allocation-free (commit re-reads the head every
    cycle); raises [Invalid_argument] when empty. *)

val drop_head : t -> unit
(** Commit: remove the oldest entry; raises [Invalid_argument] when
    empty. *)

val iter : (Entry.t -> unit) -> t -> unit
(** Oldest to youngest. *)

val squash_younger : t -> than_id:int -> int
(** Remove every entry whose id is greater than [than_id]; returns how
    many were removed. *)
