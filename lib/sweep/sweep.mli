(** Domain-parallel design-space sweeps with per-job fault domains.

    A sweep is a list of independent jobs — (workload, configuration,
    scale) triples, or pre-built traces — sharded across worker domains
    ({!Pool}). Each job generates or takes its trace and runs
    {!Resim_core.Resim} entirely on one domain (every [Engine.t] is an
    independent mutable island, so confinement is the whole safety
    argument), and outcomes come back in job order.

    Robustness: by default each job runs in its own fault domain — a
    corrupt trace, watchdog deadlock, per-job timeout or unexpected
    crash becomes a structured {!outcome} in the {!report} and the rest
    of the sweep still completes. [~strict:true] restores the original
    fail-fast contract (validate everything up front, re-raise the
    first failing job's exception).

    Trace generation and the timing engine are deterministic, so a
    sweep's results are identical at any [jobs] count; a parallel run
    only changes wall-clock time. *)

(** Which input size to run a kernel at (mirrors the report runner). *)
type scale =
  | Default         (** the kernel's default scale *)
  | Evaluation      (** the kernel's [evaluation_scale] — table runs *)
  | Exact of int

type job = {
  label : string;
  workload : Resim_workloads.Workload.t;
  config : Resim_core.Config.t;
  scale : scale;
  records : Resim_trace.Record.t array option;
      (** pre-built trace overriding kernel generation *)
  stream : (unit -> unit -> Resim_trace.Record.t option) option;
      (** a pull-stream opener, called once on the worker domain that
          runs the job; overrides [records]. See {!stream_job}. *)
  timeout : float option;
      (** per-job wall-clock budget in seconds, overriding the policy *)
  sample : Resim_sample.Sample.spec option;
      (** run sampled (functional warm-up + detailed intervals,
          DESIGN.md §13) instead of fully detailed; the statistics then
          cover only the detailed portions and the result carries the
          sampled IPC report *)
}

val job :
  ?label:string ->
  ?scale:scale ->
  ?timeout:float ->
  ?sample:Resim_sample.Sample.spec ->
  config:Resim_core.Config.t ->
  Resim_workloads.Workload.t ->
  job
(** [label] defaults to the kernel name; [scale] to [Evaluation]. *)

val trace_job :
  ?label:string ->
  ?timeout:float ->
  ?sample:Resim_sample.Sample.spec ->
  config:Resim_core.Config.t ->
  Resim_trace.Record.t array ->
  job
(** A job over a pre-built (possibly corrupt) trace. Robust runs pass
    it through the resim-check trace lint before simulating, so
    protocol violations surface as structured {!Fault} failures with
    their RSM-T code rather than silently skewed statistics. *)

val stream_job :
  ?label:string ->
  ?timeout:float ->
  config:Resim_core.Config.t ->
  (unit -> unit -> Resim_trace.Record.t option) ->
  job
(** A job over a pull stream: the opener runs once, on the worker
    domain that executes the job, so it must capture only domain-safe
    values (typically a file path — e.g.
    [fun () -> Resim_trace.Stream.(next-of open_path path)]). The
    engine draws records through a [Source] window, so a trace larger
    than RAM sweeps in constant memory. There is no up-front lint
    gate on this path: the codec's typed stream errors (truncation,
    corruption — RSM-T codes) surface mid-run and land in
    [Failed (Fault _)]. Sampling is unavailable (one-pass stream). *)

val generator_config :
  Resim_core.Config.t -> Resim_tracegen.Generator.config
(** The generator a job derives from its engine configuration: the
    configuration's predictor, wrong-path blocks of ROB + IFQ entries,
    and a 20 M instruction budget. *)

type telemetry = {
  wall_seconds : float;
      (** the simulate phase only — trace generation/acquisition is
          excluded from the window on every path *)
  host_mips : float;
      (** committed simulated instructions per host wall-clock second,
          in millions; 0 when the clock resolution swallowed the run *)
}

type result = {
  job : job;
  generated : Resim_tracegen.Generator.result;
  outcome : Resim_core.Resim.outcome;
  telemetry : telemetry;
  sample_report : Resim_sample.Sample.report option;
      (** the sampled-IPC estimate when the job ran with a sampling
          spec *)
}

exception Invalid_config of string
(** A job's configuration has {!Resim_check.Check.Config} errors; the
    payload names the job label and every failing field. Raised only on
    the strict path. *)

val run_job : ?instrument:(Resim_core.Engine.t -> unit) -> job -> result
(** Run one job on the calling domain, fail-fast: raises
    {!Invalid_config} before any work when the configuration does not
    validate, and lets trace faults and deadlocks escape. [instrument]
    runs on each job's freshly created engine before its first cycle —
    the hook observability probes attach through. *)

(** {1 Fault domains} *)

(** Why a job produced no (complete) result. *)
type failure =
  | Fault of Resim_trace.Fault.t
      (** corrupt trace — carries the RSM-T code and record offset *)
  | Deadlock of Resim_core.Engine.deadlock
  | Invalid of string  (** configuration failed resim-check *)
  | Crashed of string  (** unexpected exception, [Printexc.to_string] *)

val failure_code : failure -> string
(** Short machine-readable tag: the RSM-T code, ["deadlock"],
    ["invalid-config"] or ["crash"]. *)

val failure_to_string : failure -> string

type outcome =
  | Ok of result
  | Failed of failure
  | Timed_out of float
      (** the per-job deadline hit; payload is wall seconds burned *)
  | Truncated of result * Resim_core.Checkpoint.t
      (** the cycle budget hit; partial stats plus a resume point *)

type job_report = { job : job; outcome : outcome; attempts : int }
type report = { job_reports : job_report list  (** in job order *) }

type policy = {
  timeout : float option;   (** default per-job budget, seconds *)
  max_cycles : int64 option;
  watchdog : int option;    (** no-progress cycles before deadlock *)
  retries : int;            (** extra attempts for {!retryable} outcomes *)
  backoff : float;          (** first retry delay, seconds; doubles *)
  max_backoff : float;      (** backoff cap, seconds *)
}

val default_policy : policy
(** No budgets, no retries, engine-default watchdog, 0.25 s → 5 s
    backoff. *)

val retryable : outcome -> bool
(** Whether another attempt could help: only host-side transients —
    [Failed (Crashed _)] and [Timed_out _] — qualify. Deterministic
    failures ([Fault], [Deadlock], [Invalid]) fail identically every
    attempt and are reported after exactly one. *)

val run_job_robust :
  ?policy:policy ->
  ?instrument:(Resim_core.Engine.t -> unit) ->
  job ->
  job_report
(** Run one job inside its fault domain on the calling domain: never
    raises. {!retryable} outcomes are retried with doubling, capped
    backoff up to [policy.retries] extra attempts; the backoff sleeps
    on the calling domain (the pooled {!run} path uses coordinator
    rounds instead). Attempt wall time is measured per attempt, so
    backoff never counts into [telemetry.wall_seconds]. *)

val run :
  ?strict:bool ->
  ?policy:policy ->
  ?prof:Resim_obs.Prof.t ->
  ?jobs:int ->
  ?instrument:(Resim_core.Engine.t -> unit) ->
  job list ->
  report
(** Shard the jobs over [jobs] worker domains (default
    {!Pool.recommended_jobs}; [1] runs everything on the calling
    domain). By default every job runs in its own fault domain and the
    sweep always completes with a full per-job report — partial results
    stay available when some jobs fail. {!retryable} outcomes are
    retried in coordinator-driven rounds: the coordinator sleeps out
    the (doubling, capped) backoff between rounds and resubmits only
    the still-retryable jobs, so no worker slot ever sleeps. With
    [~strict:true] the original contract applies: every configuration
    is validated up front ({!Invalid_config} before any domain spawns)
    and the first failing job's exception, in job order, is re-raised.
    [prof] charges pool queue-wait/run spans ({!Pool.map}).
    [instrument] runs on every job's fresh engine before its first
    cycle (see {!run_job}); each worker domain calls it on its own
    engines, so the hook must be domain-safe — per-engine probes
    are. *)

val completed : report -> result list
(** Results with statistics, in job order: [Ok] plus [Truncated]
    (partial) ones. *)

val failures : report -> job_report list
(** [Failed] and [Timed_out] reports, in job order. *)

type counts = {
  ok : int;
  failed : int;
  timed_out : int;
  truncated : int;
  retried : int;  (** jobs that needed more than one attempt *)
}

val counts : report -> counts

(** {1 Aggregates and rendering} *)

val total_wall : result list -> float
(** Sum of per-job wall times — the serial-equivalent cost, which a
    parallel run divides across domains. *)

val aggregate_host_mips : result list -> float
(** Total committed instructions over {!total_wall}, in MIPS. *)

val pp_table : Format.formatter -> result list -> unit
(** One row per job: label, kernel, scale, width/ROB/organization,
    major cycles, IPC, simulated MIPS on the Virtex-5 device, and host
    telemetry. *)

val pp_failures : Format.formatter -> report -> unit
(** Failure-summary table: label, outcome tag, attempts, detail. *)

(** {1 Metrics export (observability layer)} *)

val aggregate_stall_causes : result list -> (string * int64) list
(** Element-wise sum of {!Resim_core.Stats.stall_causes} over the
    given (typically {!completed}) results, in taxonomy order. *)

val pp_stalls : Format.formatter -> result list -> unit

val metrics_json : report -> string
(** One JSON document for the whole sweep: per job its label, outcome
    tag, attempts, telemetry and full {!Resim_core.Stats.to_json}
    metrics ([null] for jobs without statistics). *)
