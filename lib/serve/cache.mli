(** Content-addressed, persisted result cache (DESIGN.md §16).

    Keys derive from (engine identity, trace identity, sample spec) —
    the engine identity ({!Resim_core.Resim.engine_identity}) already
    folds in the build version and a hash of every configuration
    field. Only *completed* runs are stored; truncated or failed
    outcomes never are. Entries persist as [<dir>/<key>.json], the
    encoded [done] event, so a repeat submission from any client — or
    after a daemon restart — is a hit, not a re-run. In memory an entry
    is its hit frame: the event marked [cached], framed, ready to
    write.

    All table accesses are [Sync.with_lock]-bracketed (PR 8 bar). *)

type t

val create : ?dir:string -> unit -> t
(** In-memory cache, persisted under [dir] when given (created if
    missing; IO failures degrade to memory-only, never raise). *)

val key : engine:string -> trace:string -> sample:string option -> string
(** Cache key. [engine] is {!Resim_core.Resim.engine_identity} output
    (version + config hash); [trace] is the trace-content hash for
    file jobs or ["kernel:<name>:<scale>"] for generated ones. *)

val find : t -> string -> string option
(** The hit frame: memory first, then the persisted entry, promoted
    into memory when it decodes to a [done] event (otherwise a miss). *)

val store : t -> string -> string -> unit
(** [store t key encoded] takes a run's encoded [done] event: its hit
    frame goes into memory, the event itself to disk (write-then-rename;
    IO failures degrade to memory-only). *)
