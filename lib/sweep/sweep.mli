(** Domain-parallel design-space sweeps with per-job fault domains.

    A sweep is a list of independent jobs — (workload, configuration,
    scale) triples, or trace streams ({!stream_job}) — mapped over
    worker domains by {!Pool.map}. Each job generates or opens its
    trace and runs {!Resim_core.Resim.run} entirely on one domain
    (every [Engine.t] is an independent mutable island, so confinement
    is the whole safety argument), and outcomes come back in job
    order.

    Robustness: each job runs in its own fault domain — an invalid
    configuration, a corrupt trace, a watchdog deadlock, a per-job
    timeout or cycle budget, or an unexpected crash becomes a
    structured {!outcome} in the {!report}, and the rest of the sweep
    still completes. {!run} is the one way jobs run: its retry rounds
    are the library's only retry loop, {!run_job_robust} is {!run} of
    one job, and {!run_job} is the fail-fast view of one job.

    Trace generation and the timing engine are deterministic, so a
    sweep's results are identical at any [jobs] count; a parallel run
    only changes wall-clock time. *)

(** Which input size to run a kernel at (also the report runner's
    [Runner.scale_spec]). *)
type scale =
  | Default         (** the kernel's default scale *)
  | Evaluation      (** the kernel's [evaluation_scale] — table runs *)
  | Exact of int

type job = {
  label : string;
  workload : Resim_workloads.Workload.t;
  config : Resim_core.Config.t;
  scale : scale;
  trace : (unit -> unit -> Resim_trace.Record.t option) option;
      (** [None] generates the kernel at [scale]. [Some open_stream]
          runs a pull stream instead: [open_stream] is called once, on
          the worker domain that runs the job. See {!stream_job}. *)
  timeout : float option;
      (** per-job wall-clock budget in seconds, overriding the policy *)
  sample : Resim_sample.Sample.spec option;
      (** run sampled (functional warm-up + detailed intervals,
          DESIGN.md §13) instead of fully detailed; the statistics then
          cover only the detailed portions and the result carries the
          sampled IPC report. Generated and pulled traces sample
          alike. *)
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

val stream_job :
  label:string ->
  ?timeout:float ->
  ?sample:Resim_sample.Sample.spec ->
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
    [Failed (Fault _)]. [sample] runs it sampled: the sampling driver
    only walks the stream forward. *)

type telemetry = {
  wall_seconds : float;
      (** the simulate phase only — trace generation/acquisition is
          excluded from the window on every path *)
  host_mips : float;
      (** simulated instructions the run covered per host wall-clock
          second, in millions: the committed ones plus, for a sampled
          run, the functionally warmed ones (a drained sampled run
          covers the whole trace, as a full run does); 0 when the clock
          resolution swallowed the run *)
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
    payload names the job label and every failing field. Raised only by
    {!run_job}. *)

(** {1 Fault domains} *)

(** Why a job produced no (complete) result. *)
type failure =
  | Fault of Resim_trace.Fault.t
      (** corrupt trace — carries the RSM-T code and record offset *)
  | Deadlock of Resim_core.Engine.deadlock
  | Invalid of string  (** configuration failed resim-check *)
  | Crashed of string  (** unexpected exception, [Printexc.to_string] *)

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
  retries : int;            (** extra attempts for {!retryable} outcomes *)
  backoff : float;          (** first retry delay, seconds; doubles *)
  max_backoff : float;      (** backoff cap, seconds *)
}
(** Every job runs under the engine's default progress watchdog. *)

val default_policy : policy
(** No budgets, no retries, 0.25 s → 5 s backoff. *)

val retryable : outcome -> bool
(** Whether another attempt could help: only host-side transients —
    [Failed (Crashed _)] and [Timed_out _] — qualify. Deterministic
    failures ([Fault], [Deadlock], [Invalid]) fail identically every
    attempt and are reported after exactly one. *)

val run_job : job -> result
(** Run one job on the calling domain, fail-fast: the same single
    attempt {!run_job_robust} makes under {!default_policy}, with its
    failure raised again — {!Invalid_config} before any work when the
    configuration does not validate, {!Resim_trace.Fault.Trace_fault}
    and {!Resim_core.Engine.Deadlock} as a direct engine run would
    raise them, and [Failure] for a crash or an expired per-job
    [timeout]. *)

val run_job_robust : policy:policy -> job -> job_report
(** Run one job inside its fault domain on the calling domain: never
    raises. This is {!run} [~jobs:1] of the one job, so its
    {!retryable} outcomes are retried by {!run}'s rounds, with the
    same doubling, capped backoff and per-attempt wall time. *)

val run :
  ?policy:policy ->
  ?prof:Resim_obs.Prof.t ->
  jobs:int ->
  ?instrument:(Resim_core.Engine.t -> unit) ->
  job list ->
  report
(** Shard the jobs over [jobs] worker domains ([1] runs everything on
    the calling domain). Every job runs in its own fault domain under
    the [policy] budgets, and the sweep always completes with a full
    per-job report — partial results stay available when some jobs
    fail. {!retryable} outcomes are retried in coordinator-driven
    rounds, the library's only retry loop: the coordinator sleeps out
    the (doubling, capped) backoff between rounds and reruns only the
    still-retryable jobs, so no worker domain ever sleeps. Attempt wall
    time is measured per attempt, so backoff never counts into
    [telemetry.wall_seconds]. [prof] charges each job attempt to
    [pool/run] ({!Pool.map}). [instrument] runs on every job's fresh
    engine before its first cycle — the hook observability probes
    attach through; each worker domain calls it on its own engines, so
    the hook must be domain-safe — per-engine probes are. *)

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
(** Engine time summed over jobs: the sum of each job's
    [telemetry.wall_seconds], which times the simulate phase only. Trace
    generation falls outside it, so it is not what the sweep would take
    serially, and a sweep's wall clock is not comparable with it. *)

val pp_table : Format.formatter -> result list -> unit
(** One row per job: label, kernel, scale, width/ROB/organization,
    major cycles, IPC, simulated MIPS on the Virtex-5 device, and host
    telemetry; the footer gives {!total_wall} and the covered
    instructions over it, in MIPS. *)

val pp_failures : Format.formatter -> report -> unit
(** Failure-summary table: label, outcome tag, attempts, detail. *)

(** {1 Metrics export (observability layer)} *)

val pp_stalls : Format.formatter -> result list -> unit

val metrics_json : report -> string
(** One JSON document for the whole sweep: per job its label, outcome
    tag, attempts, telemetry and full {!Resim_core.Stats.to_json}
    metrics ([null] for jobs without statistics). *)
