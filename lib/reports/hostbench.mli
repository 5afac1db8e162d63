(** Host-throughput measurement of the timing engine, tracked across
    PRs as machine-readable JSON ([BENCH_engine.json]).

    Each measurement runs the engine on a pre-generated kernel trace and
    reports host MIPS (millions of simulated correct-path instructions
    per host second) for one (kernel, configuration) point. *)

type measurement = {
  kernel : string;
  scale : int option;          (** [None] = the kernel's default scale *)
  config_name : string;        (** "reference" | "fast-comparable" *)
  instructions : int;          (** correct-path instructions per run *)
  record_count : int;          (** trace records (incl. wrong path) *)
  cycles : int64;              (** simulated major cycles *)
  runs : int;                  (** timed repetitions (best is kept) *)
  ns_per_run : float;
  host_mips : float;
  stall_causes : (string * int64) list;
      (** {!Resim_core.Stats.stall_causes} of the measured run — the
          same simulated work every timed repetition re-does *)
}

val measure : ?quick:bool -> unit -> measurement list
(** Run the measurement grid. [quick] (default [false]) shrinks it to a
    single small kernel for smoke tests; the full grid covers several
    kernels and both paper configurations. Every point
    is warmed once, then timed in [runs] interleaved rounds over the
    whole grid, keeping each point's best. *)

val pp_table : Format.formatter -> measurement list -> unit
(** Human-readable table, with the {!speedup_vs_seed} ratio where the
    point has an anchor. *)

val seed_baseline : (string * string * float) list
(** [(kernel, config, host_mips)] anchors measured at the
    pre-event-engine seed commit (scan-only engine) with the same
    protocol and host class. *)

val speedup_vs_seed : measurement -> float option
(** Host MIPS over the point's {!seed_baseline} anchor — the end-to-end
    engine-core speedup since the scan-only seed; [None] off the
    anchored grid (quick mode's smaller gzip trace included). *)

(** {1 Sampled simulation bench (DESIGN.md §13)} *)

type sampled_measurement = {
  s_kernel : string;
  s_scale : int option;
  s_config_name : string;
  spec : Resim_sample.Sample.spec;
  intervals : int;
  mean_ipc : float;  (** the sampled estimate *)
  ci95 : float;  (** [infinity] below two intervals (JSON [null]) *)
  full_ipc : float;  (** the full detailed run on the same trace *)
  covered : bool;  (** full-run IPC inside the sampled 95% CI *)
  detailed_instructions : int;
  warmed_instructions : int;
  full_ns : float;  (** best-of-n full detailed engine run *)
  sampled_ns : float;  (** best-of-n sampling-driver run *)
  sample_speedup : float;  (** [full_ns /. sampled_ns] *)
}

val measure_sampled : ?quick:bool -> unit -> sampled_measurement list
(** Engine-only comparison of a full detailed run against the sampling
    driver on the identical pre-generated trace, one point per bench
    kernel, reference configuration. The [covered] flag per point is
    the statistical acceptance gate; the speedup column is the
    host-throughput gain the sampling subsystem delivers. *)

val pp_sampled : Format.formatter -> sampled_measurement list -> unit

val to_json :
  ?sweep_outcomes:Resim_sweep.Sweep.counts ->
  ?sampled:sampled_measurement list ->
  measurement list ->
  string
(** The full JSON document (pretty-printed, schema documented in
    README). [sweep_outcomes] are the per-job outcome counts from the
    harness's full-grid sweep (ok/failed/timed_out/truncated/retried);
    when absent — e.g. quick mode — the key is emitted as [null].
    [sampled] is the sampled-simulation section, [null] when absent. *)
