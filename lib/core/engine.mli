(** The ReSim timing engine.

    Consumes a pre-decoded trace and simulates the out-of-order processor
    of Figure 1 one major cycle at a time. Architectural semantics are
    enforced at major-cycle boundaries; each major cycle is charged
    [L(N)] minor cycles according to the configured internal organization
    (§IV) — the three organizations are timing-equivalent at major-cycle
    granularity by design, which a property test asserts.

    Within a major cycle the engine applies stage effects in the
    simulated-semantics order commit → writeback → Lsq_refresh → issue →
    dispatch → decouple → fetch. Running writeback before issue realises
    same-cycle wakeup of single-cycle producers; running commit first
    realises the paper's flag that keeps just-completed instructions from
    committing in the same major cycle.

    Mis-speculation: a tagged block following a branch record means the
    trace generator's predictor missed it. The engine fetches down the
    tagged block, holds further fetch at the first untagged record, and
    squashes at the branch's commit (the resolution point), discarding
    tagged records it never fetched and paying the misspeculation
    penalty. Misfetches (front end needs a taken-target the BTB/RAS
    cannot supply) pay the misfetch penalty. *)

type t

(** Why the pipeline lost a slot or a cycle — the stall-cause taxonomy
    of the observability layer (DESIGN.md §11). Each constructor maps
    one-to-one onto a {!Stats} counter and is emitted at exactly the
    sites that bump it, so stall streams are bit-identical between the
    default engine and the reference phases ({!use_reference}). *)
type stall_reason =
  | Stall_ifq_empty
      (** dispatch under-filled: nothing decoupled (front-end
          starvation), charged once per stalled cycle *)
  | Stall_rob_full
  | Stall_lsq_full
  | Stall_fu_busy
      (** source-ready instruction found every eligible unit busy,
          charged once per candidate visit *)
  | Stall_read_port
  | Stall_write_port
  | Stall_icache  (** fetch burning an icache-miss stall cycle *)
  | Stall_misfetch_recovery
  | Stall_mispredict_recovery

val stall_reason_name : stall_reason -> string
(** Stable short name ("ifq-empty", "rob-full", ... ) used by the
    pipetrace JSONL format and metrics reports. *)

val all_stall_reasons : stall_reason list
(** Every reason once, in taxonomy order. *)

(** Pipeline events observable through {!set_observer}; the hook for
    tracing tools such as the [Resim_obs] sinks (the JSONL pipetrace
    and the waterfall). Entries are live engine state — read, never
    mutate. *)
type event =
  | Ev_fetch of Resim_trace.Record.t
  | Ev_dispatch of Entry.t
  | Ev_issue of Entry.t
  | Ev_complete of Entry.t
  | Ev_commit of Entry.t
  | Ev_squash of Entry.t
  | Ev_flush_frontend
      (** a squash emptied the IFQ and decouple buffer *)
  | Ev_stall of stall_reason

(** Engine phase about to run, reported to the {!set_phase_probe} hook
    once per phase per cycle. [Ph_account] closes the cycle (occupancy
    sampling and cycle counters). *)
type phase =
  | Ph_commit
  | Ph_writeback
  | Ph_issue
  | Ph_dispatch
  | Ph_decouple
  | Ph_fetch
  | Ph_account

val phase_name : phase -> string
val all_phases : phase list
(** Every phase once, in within-cycle order. *)

val create : ?config:Config.t -> Resim_trace.Record.t array -> t
(** Raises [Invalid_argument] when the configuration does not
    {!Config.validate}. Default configuration: {!Config.reference}. *)

val create_from_source : ?config:Config.t -> Source.t -> t
(** Consume records from a {!Source} — in particular a pull source fed
    by a live functional simulator ({!Cosim}), the paper's FAST-style
    on-the-fly mode. *)

val config : t -> Config.t
val stats : t -> Stats.t
val icache : t -> Resim_cache.Cache.t
(** The L1 instruction cache. *)

val dcache : t -> Resim_cache.Cache.t
(** The L1 data cache. *)

val set_observer : t -> (event -> unit) -> unit
(** Install the (single) event observer. Events fire in pipeline order
    within a cycle. With no observer installed the hot paths construct
    no events — the zero-sink run costs one pointer test per site. *)

val set_phase_probe : t -> (phase -> unit) -> unit
(** Install the host-profiling probe, called at the start of every
    engine phase of every cycle ({!Resim_obs.Prof} attributes wall time
    and allocation between consecutive calls). The engine never reads
    the clock itself. *)

val clear_phase_probe : t -> unit

val cycle : t -> int64
(** Major cycles elapsed. *)

val finished : t -> bool
(** Trace fully consumed and pipeline drained. *)

val pipeline_empty : t -> bool
(** IFQ, decouple buffer and ROB all empty — the boundary condition for
    switching between detailed and functional simulation. *)

val step : t -> unit
(** Simulate one major cycle. No-op once {!finished}. *)

val drain : t -> unit
(** Finish every in-flight instruction without fetching new ones,
    leaving the pipeline empty at the current cursor. Every phase runs
    normally — commits train the predictor, stores write the dcache,
    pending squashes resolve — and the cycles spent are charged to the
    statistics like any others. Any recovery penalty left by a squash
    during the drain is cleared (the functional gap that follows
    absorbs it). Raises {!Deadlock} only on a genuine engine bug. *)

val functional_warmup : t -> max_instructions:int -> int
(** Sampled simulation's fast-forward (DESIGN.md §13): consume up to
    [max_instructions] correct-path records updating only the
    long-lived microarchitectural state — trace cursor, instruction and
    data cache hierarchies, direction predictor, BTB and RAS — with no
    detailed timing: no ROB/LSQ/FU/event-queue work, and {!cycle} does
    not advance. Wrong-path records are skipped. Returns the number of
    correct-path instructions consumed, short of the request only when
    the trace ends. Raises [Invalid_argument] unless {!pipeline_empty}
    ({!drain} first) or if [max_instructions] is negative. *)

val cursor : t -> int
(** Trace records consumed so far (the fetch cursor). *)

(** Structured no-progress report carried by {!Deadlock}: the engine
    position at the moment the watchdog or a budget tripped.
    [stuck_for] is 0 when a cycle budget (not the watchdog) fired. *)
type deadlock = {
  reason : string;
  at_cycle : int64;
  at_cursor : int;
  rob_occupancy : int;
  fetch_mode : string;
  stuck_for : int;
}

exception Deadlock of deadlock
(** Raised by {!run}/{!run_bounded} when no commit or fetch progress is
    made for a whole watchdog window — an engine bug or a pathological
    trace, never expected on valid input. *)

val pp_deadlock : Format.formatter -> deadlock -> unit

(** Why a bounded run returned. *)
type stop =
  | Drained       (** trace consumed and pipeline empty — a full run *)
  | Cycle_budget  (** [max_cycles] reached; stats are partial *)
  | Time_budget   (** the deadline closure fired; stats are partial *)
  | Commit_target (** [max_commits] reached; stats are partial *)

type bounded = {
  final : Stats.t;
  stop : stop;
  resume : Checkpoint.t option;
      (** a replay checkpoint whenever the run was truncated *)
}

val run_bounded :
  ?watchdog:int ->
  ?max_cycles:int64 ->
  ?max_commits:int ->
  ?deadline:(unit -> bool) ->
  t ->
  bounded
(** Step until {!finished} or a budget trips, truncating gracefully with
    partial statistics and a replay checkpoint instead of raising. The
    [deadline] closure is polled every few hundred cycles — pass a
    wall-clock check; the engine itself never reads the clock.
    [max_commits] is an absolute committed-instruction target (compared
    against the [committed] counter, which persists across calls — the
    sample driver's detailed intervals rely on this). Raises
    {!Deadlock} only for genuine no-progress (watchdog), and lets
    {!Resim_trace.Fault.Trace_fault} from protocol violations
    propagate. *)

val run : ?max_cycles:int64 -> t -> Stats.t
(** Step until {!finished}; raises {!Deadlock} past [max_cycles]
    (default 1 G). *)

val simulate :
  ?config:Config.t -> Resim_trace.Record.t array -> Stats.t
(** [create] + [run]. *)

(** {1 Engine implementations (DESIGN.md §14)}

    Every engine runs the closure family: per-cycle code built once, at
    {!create}, from the engine's own configuration, and event-driven —
    a completion heap, producer-to-dependent wakeup lists, an
    oldest-first ready pool and incremental LSQ reclassification, so a
    cycle touches only state that can change in it. The readable
    reference phases remain as the test oracle and keep the paper's
    formulation: every cycle scans the ROB for writeback and issue and
    refreshes every load (Lsq_refresh). Both are bit-identical (cycles,
    every {!Stats} counter, the pipetrace event stream, the phase-probe
    sites); the committed golden digests and the differential suite
    hold them to it. *)

val use_reference : t -> unit
(** Make {!step} run the reference phases (the per-cycle scan) instead
    of the closure family, from the next cycle on. *)

val variant_name : Config.t -> string
(** The closure family's identifier for a configuration,
    ["<organization>-event-w<N>-rob<R>-lsq<L>-rp<P>wp<Q>"] (reported by
    the CLI and the metrics and profile JSON); [event] is a literal,
    naming the closure family's scheduler. *)

val variant : t -> string option
(** [Some (variant_name (config t))], or [None] after
    {!use_reference}. *)
