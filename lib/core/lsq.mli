(** Load/Store Queue.

    Holds the in-flight memory operations in program order. The
    [refresh] pass is the paper's {e Lsq_refresh} stage, executed once
    per major cycle: it examines every waiting load and decides whether
    it is blocked behind an older store with an unresolved address, can
    take its value by store-to-load forwarding, or is ready to access the
    D-cache through a read port. A store's address resolves as soon as
    its base register is available; forwarding additionally requires the
    store data to be ready. *)

type t

val create : entries:int -> t
val length : t -> int
val is_full : t -> bool

val dispatch : t -> Entry.t -> unit
(** Append a memory-op entry (program order). *)

val refresh : t -> unit
(** The Lsq_refresh pass: set {!Entry.load_readiness} on every waiting
    load. Word-granularity address matching. The reference phases
    ({!Engine.use_reference}) run it once per major cycle. *)

val refresh_entry : t -> Entry.t -> unit
(** Incremental refresh, for the event-driven closure family:
    reclassify one waiting load (no-op for stores or
    already-issued loads). Call when the load's own sources resolve or
    at its dispatch. *)

val refresh_younger : t -> than_id:int -> reclassified:(Entry.t -> unit) -> unit
(** Incremental refresh: reclassify every waiting load younger than
    [than_id], invoking [reclassified] on each. Call when a store's
    address or data resolves (with the store's id) or when a store
    retires (with [than_id] = -1: everything left is younger). *)

val release_head : t -> Entry.t -> unit
(** Commit of the memory op [entry]: it must be the queue head. *)

val squash_younger : t -> than_id:int -> int
