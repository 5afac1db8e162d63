(** Host-throughput measurement of the timing engine, tracked across
    PRs as machine-readable JSON ([BENCH_engine.json]).

    Each measurement runs the engine on a pre-generated kernel trace and
    reports host MIPS (simulated correct-path instructions per host
    microsecond... reported as millions per second) for one
    (kernel, configuration, scheduler) point, so the Scan-oracle versus
    Event-scheduler speedup is recorded per configuration. *)

type measurement = {
  kernel : string;
  scale : int option;          (** [None] = the kernel's default scale *)
  config_name : string;        (** "reference" | "fast-comparable" *)
  scheduler : string;          (** {!Resim_core.Config.scheduler_name} *)
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
    kernels, both paper configurations and both schedulers. Every point
    is warmed once, then timed in [runs] interleaved rounds over the
    whole grid, keeping each point's best. *)

val pp_table : Format.formatter -> measurement list -> unit
(** Human-readable table, with a per-(kernel, config) Event/Scan
    speedup column. *)

val speedup : measurement list -> kernel:string -> config_name:string -> float option
(** Event-over-Scan host-MIPS ratio for one grid point, when both
    measurements are present. The in-binary Scan oracle shares the
    representation optimizations introduced with the event engine, so
    this ratio understates the engine-core trajectory; see
    {!speedup_vs_seed}. *)

val seed_baseline : (string * string * float) list
(** [(kernel, config, host_mips)] anchors measured at the
    pre-event-engine seed commit (scan-only engine) with the same
    protocol and host class. *)

val speedup_vs_seed :
  measurement list -> kernel:string -> config_name:string -> float option
(** Event host-MIPS over the {!seed_baseline} anchor for one grid
    point — the end-to-end engine-core speedup this optimization work
    delivered. *)

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

val write_json :
  path:string ->
  ?sweep_outcomes:Resim_sweep.Sweep.counts ->
  ?sampled:sampled_measurement list ->
  measurement list ->
  unit
(** [to_json] to a file. *)
