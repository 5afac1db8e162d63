(** ReSim — trace-driven ILP processor timing simulation.

    High-level entry points tying the substrates together: generate a
    trace from an assembled program (or take a pre-built one), run the
    timing engine, and express the result as the paper does — simulation
    MIPS on a target FPGA device.

    {[
      let program = Resim_workloads.Gzip_like.program ~scale:1_000 in
      let outcome = Resim_core.Resim.simulate_program program in
      Format.printf "IPC %.2f, %.1f MIPS on Virtex-5@."
        (Resim_core.Stats.ipc outcome.stats)
        (Resim_core.Resim.mips outcome
           ~device:Resim_fpga.Device.virtex5_xc5vlx50t)
    ]} *)

val version : string

val engine_identity : Config.t -> string
(** ["<version>/<config hash>"] — the identity a checkpoint or cached
    result is only valid against. Stamped onto truncation checkpoints
    by {!run}, checked on resume ([RSM-K007]), and used as
    the engine component of the server's cache keys. *)

type outcome = {
  config : Config.t;
  stats : Stats.t;
  trace_summary : Resim_trace.Summary.t;
  bits_per_instruction : float;
      (** of the Fixed trace encoding, as in Table 3 *)
}

val generator_config : Config.t -> Resim_tracegen.Generator.config
(** The trace generator a run derives from its engine configuration:
    the configuration's predictor (so the generator and the engine
    model the same front end), tagged blocks of at most ROB + IFQ
    records, and a 20 M correct-path instruction budget.
    {!simulate_program}, {!Cosim.run}, sweep jobs and the
    execution-driven baseline all use it. *)

(** How a trace reaches the engine. Both become one {!Source} window,
    which the engine reads inline. *)
type trace =
  | Records of Resim_trace.Record.t array
      (** a trace already in memory (a generated kernel, a sweep or
          resimd kernel job, an API caller's array): the window covers
          the whole array, so nothing is pulled or copied *)
  | Pull of (unit -> Resim_trace.Record.t option)
      (** a pull stream drawn on demand through a sliding window, so
          the trace never materialises — constant memory for traces
          larger than RAM. Every trace file the CLI reads arrives this
          way (chunked file cursors, shard sets, pipes, foreign-format
          adapters), as does a live functional simulator. *)

(** Why a run could not produce statistics. *)
type failure =
  | Fault of Resim_trace.Fault.t
      (** the trace violated the format or tag-bit protocol *)
  | Deadlock of Engine.deadlock  (** the progress watchdog tripped *)
  | Refused of string
      (** a [resume] checkpoint does not belong to this engine, trace or
          configuration; the text says which check failed *)

val failure_to_string : failure -> string

type robust = {
  outcome : outcome;
  stop : Engine.stop;
  resume : Checkpoint.t option;
      (** a replay checkpoint whenever the run was truncated *)
}

val run :
  ?config:Config.t ->
  ?max_cycles:int64 ->
  ?deadline:(unit -> bool) ->
  ?instrument:(Engine.t -> unit) ->
  ?driver:(Engine.t -> Engine.bounded) ->
  ?resume:Checkpoint.t ->
  trace ->
  (robust, failure) result
(** Run the timing engine over a trace — the one way every caller runs
    one. Trace faults (including a pull that raises
    {!Resim_trace.Fault.Trace_fault}: a truncated or corrupt stream, a
    malformed foreign line) and deadlocks come back as [Error];
    cycle/wall-clock budgets truncate gracefully with partial
    statistics and a resume checkpoint stamped with {!engine_identity}.

    The trace summary and bits per instruction describe the whole array
    for [Records], and the records pulled for [Pull] — the same figures
    once the stream drains. A pull is wrapped once, here, to count both
    as the records go past.

    [instrument] runs on the freshly created engine before the first
    cycle, so callers can attach observability sinks
    ({!Engine.set_observer}) or phase probes ({!Engine.set_phase_probe})
    without building the engine themselves. [driver] replaces
    {!Engine.run_bounded} as the run loop — the sampled-simulation
    driver ({!Resim_sample.Sample}) uses it to alternate functional
    warm-up and detailed intervals; when given, it owns all budget
    handling and [max_cycles]/[deadline] are ignored (a [resume]
    replay still runs under [deadline]). Trace faults and deadlocks it
    raises are still caught into [Error].

    [resume] continues a truncated run from its checkpoint. A
    checkpoint stamped with a different {!engine_identity} is refused
    before the trace is touched ([RSM-K007]). Otherwise the engine
    replays the trace (an array, or a fresh pull stream over the same
    records — the replay only walks forward) to the checkpoint cycle
    under [deadline], and must then stand where the checkpoint says:
    same cursor, every statistics register equal. A trace that drains
    first, or any mismatch, is [Refused]. A clean
    replay continues as a fresh run does, under [max_cycles] (still an
    absolute cycle count) and [deadline], or under [driver]; the final
    statistics are bit-identical to an unbounded run by construction.
    A deadline that fires during the replay truncates it there, with a
    checkpoint of that earlier point. *)

val outcome_exn : (robust, failure) result -> outcome
(** The fail-fast view of {!run}: the outcome, or the caught
    {!Resim_trace.Fault.Trace_fault} or {!Engine.Deadlock} raised
    again ([Failure] for a refused resume). *)

val simulate_program : Resim_isa.Program.t -> outcome
(** Trace generation ({!Resim_tracegen.Generator} with
    {!generator_config}) followed by a fail-fast {!run}, both under
    {!Config.reference}. *)

(** {1 Paper metrics} *)

val mips : outcome -> device:Resim_fpga.Device.t -> float
(** Table 1 metric: committed instructions per second when ReSim runs at
    the device's minor-cycle frequency, in MIPS. *)

val mips_with_wrong_path : outcome -> device:Resim_fpga.Device.t -> float
(** Table 3 metric: all fetched records count. *)

val trace_bandwidth_mbytes : outcome -> device:Resim_fpga.Device.t -> float
(** Table 3 metric: input trace bandwidth demand in MB/s. *)

val pp_outcome : Format.formatter -> outcome -> unit
