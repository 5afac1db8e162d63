(** Shared experiment runner with memoisation.

    Tables 1 and 3 and several ablations reuse the same
    (kernel, configuration, scale) simulations; traces and outcomes are
    memoised so each experiment runs once per bench invocation. The
    cache is keyed structurally on the full {!Resim_core.Config.t} (a
    configuration change can never alias a stale entry) and is
    mutex-guarded, so {!run_kernel} may be called from several domains
    at once — in particular by a {!Resim_sweep.Sweep} run seeded
    through {!prewarm}. *)

type run = {
  kernel : string;
  generated : Resim_tracegen.Generator.result;
  outcome : Resim_core.Resim.outcome;
}

(** Which input size to run a kernel at: the sweep's own scale. *)
type scale_spec = Resim_sweep.Sweep.scale =
  | Default         (** the kernel's default scale — quick ablations *)
  | Evaluation      (** the kernel's [evaluation_scale] — table runs *)
  | Exact of int

val run_kernel :
  key:string ->
  config:Resim_core.Config.t ->
  ?scale:scale_spec ->
  Resim_workloads.Workload.t ->
  run
(** [key] is a display label naming the experiment (e.g. ["table1-left"]);
    memoisation identity comes from the configuration itself. [scale]
    defaults to [Evaluation].

    Every uncached run executes through {!Resim_sweep.Sweep.run_job},
    so the configuration passes the resim-check validator first:
    {!Resim_sweep.Sweep.Invalid_config} is raised (naming the failing
    fields) before any trace generation. {!prewarm} runs each job the
    same way and raises the lowest-index failure. *)

val clear_cache : unit -> unit

(** {1 Batch (domain-parallel) execution} *)

(** One memoisable simulation: what {!run_kernel} would run. *)
type request = {
  key : string;
  workload : Resim_workloads.Workload.t;
  config : Resim_core.Config.t;
  scale : scale_spec;
}

val request :
  key:string ->
  config:Resim_core.Config.t ->
  ?scale:scale_spec ->
  Resim_workloads.Workload.t ->
  request

val job_of_request : request -> Resim_sweep.Sweep.job
(** The sweep job computing exactly what {!run_kernel} computes for the
    request, labelled ["key:kernel"]. *)

val prewarm : request list -> unit
(** Run every not-yet-cached request through
    {!Resim_sweep.Sweep.run_job} across a pool of the host's recommended
    domain count and seed the memo cache, so
    subsequent {!run_kernel} calls hit. Duplicate and already-cached
    requests are skipped. Fail-fast like {!run_kernel}: the
    lowest-index failing job's exception is raised again. *)

val mips : run -> device:Resim_fpga.Device.t -> float
val mips_wrong_path : run -> device:Resim_fpga.Device.t -> float
