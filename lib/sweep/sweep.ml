module Config = Resim_core.Config
module Stats = Resim_core.Stats
module Engine = Resim_core.Engine
module Checkpoint = Resim_core.Checkpoint
module Resim = Resim_core.Resim
module Fault = Resim_trace.Fault
module Rcheck = Resim_check.Check

type scale = Default | Evaluation | Exact of int

type job = {
  label : string;
  workload : Resim_workloads.Workload.t;
  config : Config.t;
  scale : scale;
  trace : (unit -> unit -> Resim_trace.Record.t option) option;
      (* a pull stream, opened on the worker domain; None generates the
         kernel *)
  timeout : float option;  (* per-job wall-clock budget, seconds *)
  sample : Resim_sample.Sample.spec option;
      (* sampled simulation instead of a full detailed run *)
}

let job ?label ?(scale = Evaluation) ?timeout ?sample ~config workload =
  let label =
    match label with
    | Some label -> label
    | None -> Resim_workloads.Workload.name_of workload
  in
  { label; workload; config; scale; trace = None; timeout; sample }

let stream_job ~label ?timeout ?sample ~config open_stream =
  { label;
    (* Placeholder for table rendering only: a stream never touches the
       kernel. *)
    workload = List.hd Resim_workloads.Workload.all;
    config;
    scale = Exact 0;
    trace = Some open_stream;
    timeout;
    sample }

type telemetry = { wall_seconds : float; host_mips : float }

type result = {
  job : job;
  generated : Resim_tracegen.Generator.result;
  outcome : Resim.outcome;
  telemetry : telemetry;
  sample_report : Resim_sample.Sample.report option;
}

let program_of job =
  let module K = (val job.workload : Resim_workloads.Kernel_sig.S) in
  match job.scale with
  | Default -> K.program ()
  | Evaluation -> K.program ~scale:K.evaluation_scale ()
  | Exact scale -> K.program ~scale ()

exception Invalid_config of string

(* ------------------------------------------------------------------ *)
(* Per-job fault domains: one job's corrupt trace, deadlock, timeout or
   crash becomes a structured outcome in the report instead of taking
   the whole sweep down. *)

type failure =
  | Fault of Fault.t
  | Deadlock of Engine.deadlock
  | Invalid of string
  | Crashed of string

let failure_code = function
  | Fault fault -> fault.Fault.code
  | Deadlock _ -> "deadlock"
  | Invalid _ -> "invalid-config"
  | Crashed _ -> "crash"

let failure_to_string = function
  | Fault fault -> Fault.to_string fault
  | Deadlock d -> Format.asprintf "deadlock: %a" Engine.pp_deadlock d
  | Invalid summary -> "invalid configuration: " ^ summary
  | Crashed message -> "crashed: " ^ message

type outcome =
  | Ok of result
  | Failed of failure
  | Timed_out of float  (* wall seconds burned before the deadline hit *)
  | Truncated of result * Checkpoint.t

type job_report = { job : job; outcome : outcome; attempts : int }
type report = { job_reports : job_report list }

type policy = {
  timeout : float option;       (* default per-job budget, seconds *)
  max_cycles : int64 option;
  retries : int;                (* extra attempts for retryable outcomes *)
  backoff : float;              (* first retry delay, seconds *)
  max_backoff : float;
}

let default_policy =
  { timeout = None;
    max_cycles = None;
    retries = 0;
    backoff = 0.25;
    max_backoff = 5.0 }

(* The job's trace, with generator metadata when it was generated. A
   kernel is generated here. A stream opens here, on the worker domain
   (its opener captures only domain-safe values, typically a path). A
   one-pass stream cannot be linted and then simulated, so it is not
   gated: its typed codec errors surface mid-run as faults, and a
   truncated stream is exactly such a fault, never a short [Ok]. *)
let acquire job =
  match job.trace with
  | None ->
      let generated =
        Resim_tracegen.Generator.run
          ~config:(Resim.generator_config job.config)
          (program_of job)
      in
      (Some generated, Resim.Records generated.records)
  | Some open_stream -> (None, Resim.Pull (open_stream ()))

(* A stream arrives without generator metadata; the run's trace summary
   stands in for it. *)
let generated_of_trace (summary : Resim_trace.Summary.t) =
  { Resim_tracegen.Generator.records = [||];
    correct_path = summary.correct_path;
    wrong_path = summary.wrong_path;
    mispredicted_branches = 0 }

(* The instructions a run covered: its commits plus, when sampled, the
   functional warm-up between detailed intervals, which the wall-clock
   window also spans. *)
let instructions_run stats sample_report =
  Stats.get_int Stats.committed stats
  + Option.fold ~none:0
      ~some:(fun report -> report.Resim_sample.Sample.warmed_instructions)
      sample_report

(* One attempt at a job on the calling domain, whatever its kind:
   validate the configuration, acquire the trace, run it under the
   policy's budgets and map the stop reason to an outcome. Never
   raises. *)
let attempt ~policy ?instrument job : outcome =
  let simulate () =
    let generated, trace = acquire job in
    (* The wall-clock window opens once the trace is in hand:
       host_mips is an engine-throughput figure, and generation
       (often the longer half) must not dilute it. A regression
       test pins this. *)
    let started = Unix.gettimeofday () in
    let deadline =
      Option.map
        (fun seconds ->
          let limit = started +. seconds in
          fun () -> Unix.gettimeofday () > limit)
        (match job.timeout with Some _ as t -> t | None -> policy.timeout)
    in
    let max_cycles = policy.max_cycles in
    let simulated =
      match job.sample with
      | Some spec ->
          (* Sampled under the same budgets: the driver threads the
             deadline and cycle ceiling through every detailed
             interval, so truncation behaves like an unsampled run. *)
          Result.map
            (fun (robust, report) -> (robust, Some report))
            (Resim_sample.Sample.run ~config:job.config ?max_cycles
               ?deadline ?instrument ~spec trace)
      | None ->
          Result.map
            (fun robust -> (robust, None))
            (Resim.run ~config:job.config ?max_cycles ?deadline
               ?instrument trace)
    in
    match simulated with
    | Stdlib.Error (Resim.Fault fault) -> Failed (Fault fault)
    | Stdlib.Error (Resim.Deadlock d) -> Failed (Deadlock d)
    | Stdlib.Error (Resim.Refused reason) ->
        (* Unreachable: sweep jobs never resume. A refusal is
           deterministic, so it must not be retried. *)
        Failed (Invalid reason)
    | Stdlib.Ok (robust, sample_report) -> (
        let wall_seconds = Unix.gettimeofday () -. started in
        let outcome = robust.Resim.outcome in
        let covered =
          float_of_int (instructions_run outcome.stats sample_report)
        in
        let host_mips =
          if wall_seconds > 0.0 then covered /. wall_seconds /. 1e6
          else 0.0
        in
        let generated =
          match generated with
          | Some generated -> generated
          | None -> generated_of_trace outcome.trace_summary
        in
        let result =
          { job; generated; outcome;
            telemetry = { wall_seconds; host_mips }; sample_report }
        in
        match robust.Resim.stop with
        | Engine.Drained -> Ok result
        | Engine.Time_budget -> Timed_out wall_seconds
        | Engine.Cycle_budget | Engine.Commit_target -> (
            match robust.Resim.resume with
            | Some checkpoint -> Truncated (result, checkpoint)
            | None -> Ok result))
  in
  match Rcheck.Config.error_summary job.config with
  | Some summary -> Failed (Invalid summary)
  | None -> (
      match simulate () with
      | outcome -> outcome
      | exception Fault.Trace_fault fault -> Failed (Fault fault)
      | exception Engine.Deadlock d -> Failed (Deadlock d)
      | exception exn -> Failed (Crashed (Printexc.to_string exn)))

let run_job job =
  match attempt ~policy:default_policy job with
  | Ok result | Truncated (result, _) -> result
  | Timed_out seconds ->
      failwith
        (Printf.sprintf "%s: deadline hit after %.2f s" job.label seconds)
  | Failed (Fault fault) -> raise (Fault.Trace_fault fault)
  | Failed (Deadlock d) -> raise (Engine.Deadlock d)
  | Failed (Invalid summary) ->
      raise (Invalid_config (Printf.sprintf "%s: %s" job.label summary))
  | Failed (Crashed message) -> failwith message

(* Deterministic failures — corrupt traces, deadlocks, invalid
   configurations — fail identically on every attempt, so retrying them
   burns retries x backoff of wall time for nothing. Only host-side
   transients are worth another attempt: an unexpected crash, or a
   deadline that a loaded machine may have caused. *)
let retryable = function
  | Failed (Crashed _) | Timed_out _ -> true
  | Ok _ | Truncated _ | Failed (Fault _ | Deadlock _ | Invalid _) -> false

let run ?(policy = default_policy) ?prof ~jobs ?instrument list =
  let attempt job = attempt ~policy ?instrument job in
  (* Round 0: one attempt per job across the pool. *)
  let reports =
    Pool.map ?prof ~jobs
      (fun job -> { job; outcome = attempt job; attempts = 1 })
      (Array.of_list list)
  in
  (* Retry rounds, the library's only retry loop: the coordinator
     sleeps out the (doubling, capped) backoff once per round while no
     worker domain runs, then reruns only the still-retryable jobs.
     Attempt telemetry is measured inside [attempt], so backoff never
     inflates wall_seconds. Merging by index preserves job order. *)
  let rec retry round backoff =
    let pending =
      List.filter
        (fun i -> retryable reports.(i).outcome)
        (List.init (Array.length reports) Fun.id)
    in
    if round < policy.retries && pending <> [] then begin
      Unix.sleepf backoff;
      let retried =
        Pool.map ?prof ~jobs
          (fun (report : job_report) ->
            { report with
              outcome = attempt report.job;
              attempts = report.attempts + 1 })
          (Array.of_list (List.map (Array.get reports) pending))
      in
      List.iteri (fun slot i -> reports.(i) <- retried.(slot)) pending;
      retry (round + 1) (Float.min policy.max_backoff (backoff *. 2.0))
    end
  in
  retry 0 policy.backoff;
  { job_reports = Array.to_list reports }

let run_job_robust ~policy job =
  List.hd (run ~policy ~jobs:1 [ job ]).job_reports

let completed report =
  List.filter_map
    (fun jr ->
      match jr.outcome with
      | Ok result | Truncated (result, _) -> Some result
      | Failed _ | Timed_out _ -> None)
    report.job_reports

let failures report =
  List.filter
    (fun jr ->
      match jr.outcome with
      | Failed _ | Timed_out _ -> true
      | Ok _ | Truncated _ -> false)
    report.job_reports

type counts = {
  ok : int;
  failed : int;
  timed_out : int;
  truncated : int;
  retried : int;
}

let counts report =
  List.fold_left
    (fun acc jr ->
      let acc =
        if jr.attempts > 1 then { acc with retried = acc.retried + 1 }
        else acc
      in
      match jr.outcome with
      | Ok _ -> { acc with ok = acc.ok + 1 }
      | Failed _ -> { acc with failed = acc.failed + 1 }
      | Timed_out _ -> { acc with timed_out = acc.timed_out + 1 }
      | Truncated _ -> { acc with truncated = acc.truncated + 1 })
    { ok = 0; failed = 0; timed_out = 0; truncated = 0; retried = 0 }
    report.job_reports

let total_wall results =
  List.fold_left
    (fun acc result -> acc +. result.telemetry.wall_seconds)
    0.0 results

let aggregate_host_mips results =
  let covered =
    List.fold_left
      (fun acc (result : result) ->
        acc + instructions_run result.outcome.stats result.sample_report)
      0 results
  in
  let wall = total_wall results in
  if wall > 0.0 then float_of_int covered /. wall /. 1e6 else 0.0

(* ------------------------------------------------------------------ *)
(* Metrics export: per-job engine metrics and sweep-wide stall causes,
   for `resim sweep --metrics` and report tooling.                     *)

(* Element-wise sum of {!Resim_core.Stats.stall_causes} over the
   given (typically {!completed}) results, in taxonomy order. *)
let aggregate_stall_causes results =
  List.fold_left
    (fun acc (result : result) ->
      List.map2
        (fun (name, total) (_, v) -> (name, Int64.add total v))
        acc
        (Stats.stall_causes result.outcome.stats))
    (Stats.stall_causes (Stats.create ()))
    results

let pp_stalls ppf results =
  Format.fprintf ppf "@[<v>stall causes (all completed jobs):@,";
  List.iter
    (fun (name, value) -> Format.fprintf ppf "  %-20s %Ld@," name value)
    (aggregate_stall_causes results);
  Format.fprintf ppf "@]"

let outcome_tag = function
  | Ok _ -> "ok"
  | Failed failure -> failure_code failure
  | Timed_out _ -> "timed-out"
  | Truncated _ -> "truncated"

let metrics_json report =
  let open Resim_core.Json in
  let results = function
    | Ok result | Truncated (result, _) ->
        [ ( "telemetry",
            Obj
              [ ("wall_seconds", fixed 6 result.telemetry.wall_seconds);
                ("host_mips", fixed 4 result.telemetry.host_mips) ] ) ]
        @ (match result.sample_report with
          | Some report ->
              [ ("sample", Raw (Resim_sample.Sample.report_to_json report)) ]
          | None -> [])
        @ [ ("metrics", Raw (Stats.to_json result.outcome.stats)) ]
    | Failed _ | Timed_out _ -> [ ("metrics", Null) ]
  in
  let job jr =
    Obj
      ([ ("label", String jr.job.label);
         ("outcome", String (outcome_tag jr.outcome));
         ("attempts", int jr.attempts) ]
      @ results jr.outcome)
  in
  to_string (Obj [ ("jobs", List (List.map job report.job_reports)) ])

let scale_tag job =
  match job.scale with
  | Default -> "default"
  | Evaluation ->
      let module K = (val job.workload : Resim_workloads.Kernel_sig.S) in
      string_of_int K.evaluation_scale
  | Exact scale -> string_of_int scale

let pp_table ppf results =
  let v5 = Resim_fpga.Device.virtex5_xc5vlx50t in
  Format.fprintf ppf "@[<v>%-22s %-8s %8s %3s %4s %-9s %12s %7s %10s %8s %10s@,"
    "label" "kernel" "scale" "N" "ROB" "org" "major cyc" "IPC" "MIPS V5"
    "wall s" "host MIPS";
  List.iter
    (fun (result : result) ->
      let config = result.job.config in
      Format.fprintf ppf
        "%-22s %-8s %8s %3d %4d %-9s %12Ld %7.3f %10.2f %8.2f %10.3f@,"
        result.job.label
        (Resim_workloads.Workload.name_of result.job.workload)
        (scale_tag result.job) config.width config.rob_entries
        (Config.organization_name config.organization)
        (Stats.get Stats.major_cycles result.outcome.stats)
        (Stats.ipc result.outcome.stats)
        (Resim.mips result.outcome ~device:v5)
        result.telemetry.wall_seconds result.telemetry.host_mips)
    results;
  Format.fprintf ppf
    "@,%d job(s); engine time summed over jobs %.2f s; aggregate host %.3f \
     MIPS@]"
    (List.length results) (total_wall results)
    (aggregate_host_mips results)

let pp_failures ppf report =
  let failed = failures report in
  Format.fprintf ppf "@[<v>%-22s %-14s %-9s detail@," "label" "outcome"
    "attempts";
  List.iter
    (fun jr ->
      match jr.outcome with
      | Failed failure ->
          Format.fprintf ppf "%-22s %-14s %-9d %s@," jr.job.label
            (failure_code failure) jr.attempts (failure_to_string failure)
      | Timed_out seconds ->
          Format.fprintf ppf "%-22s %-14s %-9d deadline hit after %.2f s@,"
            jr.job.label "timed-out" jr.attempts seconds
      | Ok _ | Truncated _ -> ())
    failed;
  Format.fprintf ppf "%d of %d job(s) failed@]" (List.length failed)
    (List.length report.job_reports)
