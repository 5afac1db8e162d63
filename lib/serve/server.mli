(** resimd: the fault-tolerant simulation job server (DESIGN.md §16).

    A select-driven accept loop plus [workers] worker domains around a
    guarded job queue. Robustness guarantees, in the order they bite:

    - {b Admission control}: per-client outstanding-job quota
      ([Over_quota]) and a bounded queue ([Queue_full]), both rejected
      with typed events rather than dropped connections.
    - {b Graceful degradation}: under load, new lint requests are shed
      at half queue capacity and new sweeps at three quarters; at
      capacity an arriving simulate evicts one queued lint (then
      sweep). In-flight simulates are never shed.
    - {b Supervision}: a worker domain that dies is joined, its job is
      requeued with capped doubling backoff until the retry budget is
      spent (then reported as a [crash] outcome), and a replacement
      domain is spawned — the queue never wedges.
    - {b Result cache}: completed simulates are stored under a
      content-addressed key (engine identity × trace hash × sample
      spec), optionally persisted across restarts.
    - {b Clean drain}: SIGTERM/SIGINT flip an atomic; the loop stops
      accepting, finishes admitted work, joins every worker, flushes
      clients, and unlinks the socket. A stale socket left by an
      unclean death is detected (probe connect) and reclaimed. *)

type config = {
  socket_path : string;
  workers : int;          (** worker domains (≥ 1) *)
  max_queue : int;        (** queued-job bound driving shed/refuse *)
  max_per_client : int;   (** outstanding jobs per client name *)
  retries : int;          (** worker-death retries per job *)
  backoff : float;
      (** initial crash-requeue delay, seconds; doubles per retry,
          capped at 1 s *)
  cache_dir : string option;  (** persist cache entries here *)
  test_hooks : bool;      (** enable the [crash-worker] request *)
  verbose : bool;         (** supervision chatter on stderr *)
}

val default_config : socket_path:string -> config
(** 2 workers, queue of 64, quota 8, 2 retries, 50 ms → 1 s backoff,
    memory-only cache, no test hooks. *)

val run : config -> (unit, string) result
(** Serve until SIGTERM/SIGINT, then drain and clean up. [Error]
    only when the socket is genuinely owned by a live server. A
    [status] request reports the counters accepted, rejected, shed,
    retried, cache_hits, cache_misses, completed, failed, malformed
    and worker_restarts, in that order. *)
