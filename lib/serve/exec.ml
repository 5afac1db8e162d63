(* Request execution on a worker domain (DESIGN.md §16).

   Everything here is confined: a job's engine, trace and statistics
   live and die on the worker domain that runs it, and the only values
   that cross back are immutable payload records through the server's
   guarded completion queue. Keeping this in its own module also keeps
   the server's spawn closures free of execution internals — the
   domain-safety analyzer reasons about what a spawned closure can
   reach, and here the answer is "a cross-module call".

   The robustness model is Sweep's, reused wholesale: each request
   runs under [Sweep.run_job_robust]'s fault domain, so corrupt
   traces, deadlocks, invalid configurations, per-job budgets and
   host-transient retries (with capped, doubling backoff) all arrive
   as typed outcomes, never exceptions. *)

module Sweep = Resim_sweep.Sweep
module Resim = Resim_core.Resim
module Stats = Resim_core.Stats
module Checkpoint = Resim_core.Checkpoint

exception Crashed_on_purpose
(* Test hook: [Crash_worker] raises this through the worker loop,
   killing the domain so the supervisor's respawn path can be
   exercised from a test or smoke script. *)

let payload ?detail ?metrics ?checkpoint ~outcome ~exit_code ~attempts () =
  { Protocol.outcome;
    exit_code;
    cached = false;
    attempts;
    detail;
    metrics;
    checkpoint }

let invalid detail =
  payload ~outcome:"invalid-config" ~exit_code:2 ~attempts:1 ~detail ()

(* --- cache identity ----------------------------------------------- *)

let trace_component spec =
  match spec.Protocol.trace with
  | Some path -> (
      match Resim_core.Hash.file path with
      | Ok h -> Some ("trace:" ^ h)
      | Error _ -> None)
  | None ->
      Some
        (Printf.sprintf "kernel:%s:%s" spec.Protocol.kernel
           (match spec.Protocol.scale with
           | Some n -> string_of_int n
           | None -> "default"))

(* Only simulates are cached, and only their completed ("ok")
   outcomes ever get stored — so wall/cycle budgets need not be part
   of the key: a run that *completed* under a budget is bit-identical
   to one that never had it. *)
let cache_key body =
  match body with
  | Protocol.Simulate spec -> (
      match Protocol.resolve_config spec.Protocol.config with
      | Error _ -> None
      | Ok config -> (
          match trace_component spec with
          | None -> None
          | Some trace ->
              Some
                (Cache.key
                   ~engine:(Resim.engine_identity config)
                   ~trace ~sample:spec.Protocol.sample)))
  | _ -> None

(* --- job construction --------------------------------------------- *)

let parse_sample = function
  | None -> Ok None
  | Some raw -> (
      match Resim_sample.Sample.spec_of_string raw with
      | Ok spec -> Ok (Some spec)
      | Error message -> Error (Printf.sprintf "sample %s" message))

let sim_job spec =
  let ( let* ) = Result.bind in
  let* config = Protocol.resolve_config spec.Protocol.config in
  let* sample = parse_sample spec.Protocol.sample in
  match spec.Protocol.trace with
  | Some path -> (
      (* Validate existence and header eagerly (typed invalid-config
         instead of a mid-run fault), then hand the worker a stream
         opener so the trace never materialises — exec runs traces
         larger than RAM, sampled or not. *)
      match Resim_trace.Stream.open_path path with
      | Error error ->
          Error
            (Printf.sprintf "%s: %s" path
               (Resim_trace.Codec.error_to_string error))
      | Ok probe ->
          Resim_trace.Stream.close probe;
          let open_stream () =
            match Resim_trace.Stream.open_path path with
            | Ok stream -> fun () -> Resim_trace.Stream.next stream
            | Error { Resim_trace.Codec.error_code; byte_offset; reason } ->
                Resim_trace.Fault.fail ~code:error_code ~offset:0
                  (Printf.sprintf "%s: byte %d: %s" path byte_offset reason)
          in
          Ok
            (Sweep.stream_job
               ~label:(Filename.basename path)
               ?timeout:spec.Protocol.timeout ?sample ~config open_stream))
  | None -> (
      match Resim_workloads.Workload.find spec.Protocol.kernel with
      | exception Not_found ->
          Error (Printf.sprintf "unknown kernel %S" spec.Protocol.kernel)
      | workload ->
          let scale =
            match spec.Protocol.scale with
            | Some n -> Sweep.Exact n
            | None -> Sweep.Default
          in
          Ok
            (Sweep.job ~scale ?timeout:spec.Protocol.timeout ?sample ~config
               workload))

(* --- outcome → payload -------------------------------------------- *)

let metrics_of (result : Sweep.result) =
  let stats_json = Stats.to_json result.outcome.Resim.stats in
  match result.sample_report with
  | None -> stats_json
  | Some report ->
      Resim_core.Json.append_members stats_json
        [ ( "sample",
            Resim_core.Json.Raw (Resim_sample.Sample.report_to_json report) ) ]

let report_payload (report : Sweep.job_report) =
  let attempts = report.attempts in
  match report.outcome with
  | Sweep.Ok result ->
      payload ~outcome:"ok" ~exit_code:0 ~attempts
        ~metrics:(metrics_of result) ()
  | Sweep.Truncated (result, checkpoint) ->
      payload ~outcome:"truncated" ~exit_code:0 ~attempts
        ~metrics:(metrics_of result)
        ~checkpoint:(Checkpoint.to_string checkpoint)
        ()
  | Sweep.Timed_out wall ->
      payload ~outcome:"timed-out" ~exit_code:3 ~attempts
        ~detail:(Printf.sprintf "per-job budget hit after %.2fs" wall)
        ()
  | Sweep.Failed failure ->
      let detail = Sweep.failure_to_string failure in
      let outcome, exit_code =
        match failure with
        | Sweep.Fault _ -> ("fault", 3)
        | Sweep.Deadlock _ -> ("deadlock", 3)
        | Sweep.Invalid _ -> ("invalid-config", 2)
        | Sweep.Crashed _ -> ("crash", 3)
      in
      payload ~outcome ~exit_code ~attempts ~detail ()

(* --- execution ---------------------------------------------------- *)

let policy_of ~retries ~backoff ~max_backoff ~max_cycles =
  { Sweep.default_policy with Sweep.retries; backoff; max_backoff; max_cycles }

let run_simulate ~policy spec =
  match sim_job spec with
  | Error detail -> invalid detail
  | Ok job -> report_payload (Sweep.run_job_robust ~policy job)

let run_sweep ~policy ~progress ~kernels ~widths ~config ~timeout ~sample =
  match parse_sample sample with
  | Error detail -> invalid detail
  | Ok sample ->
      let specs =
        List.concat_map
          (fun kernel ->
            List.map
              (fun width -> (kernel, width, { config with Protocol.width = Some width }))
              widths)
          kernels
      in
      let total = List.length specs in
      let build (kernel, width, config_spec) =
        let ( let* ) = Result.bind in
        let* config = Protocol.resolve_config config_spec in
        match Resim_workloads.Workload.find kernel with
        | exception Not_found -> Error (Printf.sprintf "unknown kernel %S" kernel)
        | workload ->
            Ok
              (Sweep.job
                 ~label:(Printf.sprintf "%s/w%d" kernel width)
                 ~scale:Sweep.Default ?timeout ?sample ~config workload)
      in
      let reports =
        List.mapi
          (fun i spec3 ->
            let kernel, width, _ = spec3 in
            let label = Printf.sprintf "%s/w%d" kernel width in
            let report =
              match build spec3 with
              | Error detail ->
                  { Sweep.job =
                      Sweep.job
                        ~label
                        ~config:Resim_core.Config.reference
                        (Resim_workloads.Workload.find "gzip");
                    outcome = Sweep.Failed (Sweep.Invalid detail);
                    attempts = 1 }
              | Ok job -> Sweep.run_job_robust ~policy job
            in
            progress ~completed:(i + 1) ~total ~label;
            report)
          specs
      in
      let report = { Sweep.job_reports = reports } in
      let counts = Sweep.counts report in
      let attempts =
        List.fold_left
          (fun acc (r : Sweep.job_report) -> max acc r.attempts)
          1 reports
      in
      let metrics = Sweep.metrics_json report in
      if counts.Sweep.failed = 0 && counts.Sweep.timed_out = 0 then
        payload ~outcome:"ok" ~exit_code:0 ~attempts ~metrics ()
      else
        let any_invalid =
          List.exists
            (fun (r : Sweep.job_report) ->
              match r.Sweep.outcome with
              | Sweep.Failed (Sweep.Invalid _) -> true
              | _ -> false)
            reports
        in
        let outcome, exit_code =
          if any_invalid then ("invalid-config", 2) else ("fault", 3)
        in
        payload ~outcome ~exit_code ~attempts ~metrics
          ~detail:
            (Printf.sprintf "%d of %d job(s) failed"
               (counts.Sweep.failed + counts.Sweep.timed_out)
               total)
          ()

let run_lint ~path ~max_run =
  (* lint_file never raises now: host I/O failures come back as
     RSM-T009 diagnostics. An unreadable file is still an invalid
     request (exit 2), not a lint finding (exit 1). *)
  let report =
    Resim_check.Check.Trace.lint_file ?max_wrong_path_run:max_run path
  in
  let diagnostics = report.Resim_check.Trace_check.diagnostics in
  match
    List.find_opt
      (fun d -> d.Resim_check.Diagnostic.code = "RSM-T009")
      diagnostics
  with
  | Some d -> invalid d.Resim_check.Diagnostic.message
  | None ->
      if Resim_check.Check.Diagnostic.has_errors diagnostics then
        payload ~outcome:"lint-errors" ~exit_code:1 ~attempts:1
          ~detail:
            (Format.asprintf "%a" Resim_check.Check.Diagnostic.pp_list
               diagnostics)
          ()
      else
        payload ~outcome:"lint-clean" ~exit_code:0 ~attempts:1
          ~detail:
            (Printf.sprintf "%d record(s) checked"
               report.Resim_check.Trace_check.records_checked)
          ()

let run ?(progress = fun ~completed:_ ~total:_ ~label:_ -> ())
    ~retries ~backoff ~max_backoff ~test_hooks body =
  match body with
  | Protocol.Simulate spec ->
      let policy =
        policy_of ~retries ~backoff ~max_backoff
          ~max_cycles:spec.Protocol.max_cycles
      in
      run_simulate ~policy spec
  | Protocol.Sweep_grid { kernels; widths; config; max_cycles; timeout; sample }
    ->
      let policy = policy_of ~retries ~backoff ~max_backoff ~max_cycles in
      run_sweep ~policy ~progress ~kernels ~widths ~config ~timeout ~sample
  | Protocol.Lint { path; max_run } -> run_lint ~path ~max_run
  | Protocol.Status ->
      invalid "status is answered by the accept loop, not a worker"
  | Protocol.Crash_worker ->
      if test_hooks then raise Crashed_on_purpose
      else invalid "crash-worker requires a server started with --test-hooks"
