(** Hit/miss + latency cache model.

    ReSim does not store cached data — “we need to provide only the
    hit/miss indication and simulate the access latency” (§V) — so neither
    do we: the model keeps tags and LRU state only. A [Perfect] geometry
    always hits, modelling the paper's *perfect memory system*
    configuration. *)

type geometry = {
  size_bytes : int;      (** total capacity *)
  associativity : int;
  block_bytes : int;
}

type config =
  | Perfect                       (** every access hits in [hit_latency] *)
  | Set_associative of geometry

type timing = {
  hit_latency : int;     (** major cycles for a hit *)
  miss_latency : int;    (** additional major cycles on a miss *)
}

val default_timing : timing
(** 1-cycle hits, 18-cycle miss penalty. *)

val l1_32k_8way_64b : config
(** The FAST-comparable L1: 32 KB, 8-way, 64-byte blocks (Table 1,
    right). *)

type counters = {
  mutable clock : int;
  mutable accesses : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}
(** Live access counters (host ints; the {!stats} view widens to
    int64). Exposed for the engine's closure family (DESIGN.md §14),
    which bumps a perfect cache's counters inline — a perfect
    cache's access is nothing but these increments plus the constant
    hit latency. Treat as read-only elsewhere. *)

type t

val create : ?timing:timing -> config -> t
val config : t -> config
val timing : t -> timing

val counters : t -> counters
(** The cache's live counter record (shared, not a snapshot). *)

val access : t -> addr:int -> write:bool -> int
(** Simulate one access to byte address [addr]; returns its latency in
    major cycles and updates tag/LRU state and statistics. *)

val probe : t -> addr:int -> bool
(** Would [addr] hit right now? No state change, no statistics. *)

(** {1 Statistics} *)

type stats = {
  accesses : int64;
  hits : int64;
  misses : int64;
  evictions : int64;
}

val stats : t -> stats
