(** Rename table: architectural register → in-flight producer.

    Dispatch looks sources up here and records the producing ROB entry;
    writeback clears a mapping it still owns. Because branch resolution
    happens at commit (when the branch is the oldest instruction), a
    squash always empties the window, so recovery is a full {!reset}.

    The representation is exposed for the engine's closure family
    (DESIGN.md §14), which inlines the per-dispatch lookups. Slot [r]
    holds the producing entry id for architectural register [r], or
    [Entry.no_producer]; slot 0 (the zero register) is never defined.
    Treat the type as private elsewhere. *)

type t = { producers : int array }

val create : registers:int -> t

val producer : t -> int -> int
(** [producer t reg] is the id of the in-flight entry producing [reg],
    or {!Entry.no_producer} when the architectural value is current.
    Register 0 never has a producer. *)

val define : t -> reg:int -> id:int -> unit
(** Dispatch of an instruction writing [reg]. *)

val clear : t -> reg:int -> id:int -> unit
(** Writeback: remove the mapping only if [id] still owns it. *)

val reset : t -> unit
