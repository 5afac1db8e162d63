(** Parallel [Array.map] over worker domains.

    The substrate for domain-parallel sweeps: up to [jobs] worker
    domains claim input indices from one atomic counter, run the
    function on their elements, and hand their [(index, result)] pairs
    back through [Domain.join]. Nothing but the counter is shared
    while they run — no queue, no lock, no future — and results come
    back in input order, so a map of any width produces the same
    array.

    Each element runs entirely on one worker domain — a mutable island
    such as an [Engine.t] created inside [f] never migrates. *)

val map :
  ?prof:Resim_obs.Prof.t -> jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** Parallel [Array.map] with results in input order, on at most
    [min jobs n] worker domains. [jobs <= 1] (or an input shorter
    than two elements) runs serially on the calling domain with no
    domain at all, so a serial sweep is exactly the code a parallel
    sweep runs per worker. When elements raise, the lowest-index
    exception is re-raised with its backtrace; in parallel every
    other element still runs first. With [prof], each element's run
    is charged to the profile's [pool/run] section. *)

val recommended_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the host's useful
    parallelism (1 on a single-core host). *)
