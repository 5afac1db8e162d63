(** Simulation statistics.

    Mirrors §V.B: ReSim collects sim-outorder-like statistics in 64-bit
    registers — instruction/branch/memory counts, cache behaviour, queue
    occupancies and detailed branch information. Counters are stored
    unboxed (host [int], 63-bit) so the engine's per-instruction bumps
    never allocate; values are widened to [int64] on read. *)

type t

type counter
(** One statistics register; read it with {!get} or {!get_int}. *)

val create : unit -> t

(** {1 Counters} *)

val incr : t -> (t -> counter) -> unit
val add : t -> (t -> counter) -> int -> unit

val live : (t -> counter) -> t -> int ref
(** The raw cell behind a counter, for code that bumps it on a per-cycle
    budget: the engine's closure family (DESIGN.md §14) resolves every
    counter it touches once, when the engine is created, and then uses
    plain ref arithmetic. The cell stays valid for the lifetime of [t]. *)

val major_cycles : t -> counter
val fetched : t -> counter
(** All records entering the IFQ, wrong path included. *)

val fetched_wrong_path : t -> counter
val discarded_wrong_path : t -> counter
(** Tagged records skipped at branch resolution without being fetched. *)

val dispatched : t -> counter
val issued : t -> counter
val committed : t -> counter
val committed_branches : t -> counter
val committed_cond_branches : t -> counter
val committed_loads : t -> counter
val committed_stores : t -> counter
val committed_mult_div : t -> counter
val mispredictions : t -> counter
(** Squashes at commit (direction mispredictions in the trace). *)

val misfetches : t -> counter
val forwarded_loads : t -> counter
val icache_stall_cycles : t -> counter
val fetch_penalty_cycles : t -> counter
val rob_full_stalls : t -> counter
val lsq_full_stalls : t -> counter
val write_port_stalls : t -> counter
val read_port_stalls : t -> counter

val ifq_empty_stalls : t -> counter
(** Cycles dispatch under-filled because the front end had nothing
    decoupled — front-end starvation. *)

val fu_busy_stalls : t -> counter
(** Issue attempts on a source-ready instruction that found every
    eligible functional unit busy (structural hazard; one bump per
    candidate visit, so a starved instruction counts once per cycle). *)

val misfetch_recovery_cycles : t -> counter
(** Fetch penalty cycles attributed to misfetch recovery. *)

val mispredict_recovery_cycles : t -> counter
(** Fetch penalty cycles attributed to misprediction (squash)
    recovery. Together with {!misfetch_recovery_cycles} these
    attribute {!fetch_penalty_cycles} per cause; icache-miss cycles are
    already attributed by {!icache_stall_cycles}. *)

val mark_degraded : ?faults:int -> t -> unit
(** Mark the run degraded, attributing [faults] (default 1) survived
    faults; derived figures are approximate from then on. *)

val degraded : t -> bool
(** True once {!mark_degraded} has been called. *)

(** {1 Per-cycle width distributions} *)

val commit_width_histogram : t -> Histogram.t
(** Instructions committed per major cycle. *)

val issue_width_histogram : t -> Histogram.t
(** Instructions issued per major cycle. *)

val observe_commit_width : t -> int -> unit
val observe_issue_width : t -> int -> unit

(** {1 Occupancy accumulators} (sampled once per major cycle) *)

val sample_occupancy : t -> ifq:int -> rob:int -> lsq:int -> unit

(** {1 Derived} *)

val ipc : t -> float
(** Committed instructions per major cycle. *)

val get : (t -> counter) -> t -> int64

val get_int : (t -> counter) -> t -> int
(** [get] without the int64 widening — allocation-free, for hot
    read-back paths (e.g. the engine's progress watchdog). *)

val to_assoc : t -> (string * int64) list
(** Every counter as a (name, value) pair, for CSV/JSON export and for
    whole-state comparisons in tests. *)

(** {1 Metrics export (observability layer)} *)

val stall_causes : t -> (string * int64) list
(** The stall-cause taxonomy (DESIGN.md §11) in stable order:
    ifq_empty, rob_full, lsq_full, fu_busy, rd_port, wr_port, icache,
    misfetch_recovery, mispredict_recovery. *)

val to_json : t -> string
(** The stable metrics document: every counter, the stall-cause
    taxonomy, zero-guarded derived ratios (six decimals) and the width
    histograms, printed in {!Json.layout} [Lines]. Consumed by [resim
    simulate --metrics] and the sweep/bench exporters. *)

val csv_header : unit -> string
val csv_row : t -> string
(** One CSV line per run, columns exactly {!to_assoc} order. *)

val pp : Format.formatter -> t -> unit
