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
    by {!simulate_robust}, checked on resume ([RSM-K007]), and used as
    the engine component of the server's cache keys. *)

type outcome = {
  config : Config.t;
  stats : Stats.t;
  trace_summary : Resim_trace.Summary.t;
  bits_per_instruction : float;
      (** of the Fixed trace encoding, as in Table 3 *)
  icache_stats : Resim_cache.Cache.stats;
  dcache_stats : Resim_cache.Cache.stats;
}

val simulate_trace :
  ?config:Config.t ->
  ?instrument:(Engine.t -> unit) ->
  Resim_trace.Record.t array ->
  outcome
(** [instrument] runs on the freshly created engine before the first
    cycle — the hook the observability sinks attach through. *)

val simulate_program :
  ?config:Config.t ->
  ?generator:Resim_tracegen.Generator.config ->
  Resim_isa.Program.t ->
  outcome
(** Trace generation ({!Resim_tracegen.Generator}) followed by
    {!simulate_trace}. When [generator] is omitted, its predictor is
    taken from the engine configuration so the generator and the engine
    model the same front end. *)

(** {1 Robust entry points}

    Structured failures instead of exceptions, graceful truncation under
    cycle/wall-clock budgets, and deterministic resume from a replay
    checkpoint. *)

(** Why a robust run could not produce statistics. *)
type failure =
  | Fault of Resim_trace.Fault.t
      (** the trace violated the format or tag-bit protocol *)
  | Deadlock of Engine.deadlock  (** the progress watchdog tripped *)

val failure_to_string : failure -> string

type robust = {
  outcome : outcome;
  stop : Engine.stop;
  resume : Checkpoint.t option;
      (** a replay checkpoint whenever the run was truncated *)
}

val simulate_robust :
  ?config:Config.t ->
  ?watchdog:int ->
  ?max_cycles:int64 ->
  ?deadline:(unit -> bool) ->
  ?instrument:(Engine.t -> unit) ->
  ?driver:(Engine.t -> Engine.bounded) ->
  Resim_trace.Record.t array ->
  (robust, failure) result
(** {!simulate_trace} under fault domains: trace faults and deadlocks
    come back as [Error]; cycle/wall-clock budgets truncate gracefully
    with partial statistics and a resume checkpoint. [instrument] runs
    on the freshly created engine before the first cycle, so callers
    can attach observability sinks ({!Engine.set_observer}) or phase
    probes ({!Engine.set_phase_probe}) without building the engine
    themselves. [driver] replaces {!Engine.run_bounded} as the run
    loop — the sampled-simulation driver ({!Resim_sample.Sample}) uses
    it to alternate functional warm-up and detailed intervals; when
    given, it owns all budget handling and [watchdog]/[max_cycles]/
    [deadline] are ignored. Trace faults and deadlocks it raises are
    still caught into [Error]. *)

val simulate_pull_robust :
  ?config:Config.t ->
  ?watchdog:int ->
  ?max_cycles:int64 ->
  ?deadline:(unit -> bool) ->
  ?instrument:(Engine.t -> unit) ->
  (unit -> Resim_trace.Record.t option) ->
  (robust, failure) result
(** {!simulate_robust} over a pull stream instead of an array: the
    engine draws records on demand through a {!Source} window, so the
    trace never materialises — constant memory for traces larger than
    RAM (chunked file cursors, pipes, foreign-format adapters). The
    trace summary accumulates incrementally; [bits_per_instruction] is
    0 on this path (the encoded payload size is unknown). A pull that
    raises {!Resim_trace.Fault.Trace_fault} (truncated or corrupt
    stream, malformed foreign line) comes back as [Error (Fault _)]. *)

val resume_trace :
  ?config:Config.t ->
  checkpoint:Checkpoint.t ->
  Resim_trace.Record.t array ->
  (outcome, string) result
(** Deterministically resume a truncated run: replay the trace to the
    checkpoint cycle, verify the cursor and every statistics register
    match the snapshot (refusing a checkpoint from a different trace or
    configuration), then run to completion. The final statistics are
    bit-identical to an unbounded run by construction. A checkpoint
    stamped with a different {!engine_identity} is refused before the
    replay starts ([RSM-K007]). *)

(** {1 Paper metrics} *)

val mips : outcome -> device:Resim_fpga.Device.t -> float
(** Table 1 metric: committed instructions per second when ReSim runs at
    the device's minor-cycle frequency, in MIPS. *)

val mips_with_wrong_path : outcome -> device:Resim_fpga.Device.t -> float
(** Table 3 metric: all fetched records count. *)

val trace_bandwidth_mbytes : outcome -> device:Resim_fpga.Device.t -> float
(** Table 3 metric: input trace bandwidth demand in MB/s. *)

val pp_outcome : Format.formatter -> outcome -> unit
