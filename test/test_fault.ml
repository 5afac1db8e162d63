(* Robustness tests: every Fault_inject corruption class must surface
   as the matching structured RSM-T diagnostic — never an anonymous
   exception, never a hang (all simulation runs sit under the engine
   watchdog); sweeps with failing jobs still complete with partial
   results; and a budget-truncated run resumed from its replay
   checkpoint reproduces the unbounded run's statistics bit for bit. *)

module Codec = Resim_trace.Codec
module Fault = Resim_trace.Fault
module Fault_inject = Resim_trace.Fault_inject
module Check = Resim_check.Check
module Config = Resim_core.Config
module Stats = Resim_core.Stats
module Engine = Resim_core.Engine
module Checkpoint = Resim_core.Checkpoint
module Resim = Resim_core.Resim
module Sweep = Resim_sweep.Sweep

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let records_of ?(kernel = "gzip") scale =
  let workload = Resim_workloads.Workload.find kernel in
  let program = Resim_workloads.Workload.program_of workload ~scale () in
  (Resim_tracegen.Generator.run program).records

(* One small shared trace; every corruption is derived from it. *)
let base_records = lazy (records_of 256)

(* A sweep job over [records] encoded and cut short: its pull stream
   raises the codec's RSM-T002 truncation fault mid-run, on every
   attempt. *)
let truncated_stream_job ~label records =
  let encoded = Codec.encode records in
  let truncated = String.sub encoded 0 (String.length encoded - 64) in
  Sweep.stream_job ~label ~config:Config.reference (fun () ->
      match Codec.Cursor.of_string_result truncated with
      | Error error -> Alcotest.fail (Codec.error_to_string error)
      | Ok cursor ->
          let stream =
            Resim_trace.Stream.of_cursor ~source:"<trace>" cursor
          in
          fun () -> Resim_trace.Stream.next stream)

let diagnostic_codes (report : Check.Trace.report) =
  List.map (fun d -> d.Check.Diagnostic.code) report.diagnostics

(* --- every class surfaces its RSM-T code through the lint layer ------- *)

let test_classes_surface_codes () =
  let records = Lazy.force base_records in
  List.iter
    (fun fault ->
      let name = Fault_inject.name fault in
      let data =
        Fault_inject.apply ~seed:7 ~format:Codec.Fixed fault records
      in
      let report =
        Check.Trace.lint_string
          ~max_wrong_path_run:Fault_inject.default_max_run data
      in
      (match Fault_inject.expected_code fault with
      | None -> ()
      | Some code ->
          check bool
            (name ^ " surfaces " ^ code)
            true
            (List.mem code (diagnostic_codes report)));
      match Fault_inject.severity fault with
      | `Error ->
          check bool (name ^ " is an error") true
            (Check.Diagnostic.has_errors report.diagnostics)
      | `Warning ->
          check bool (name ^ " is a warning only") true
            (report.diagnostics <> []
            && not (Check.Diagnostic.has_errors report.diagnostics))
      | `Varies -> ())
    Fault_inject.all

let test_diagnostics_carry_offsets () =
  let records = Lazy.force base_records in
  let total = Array.length records in
  let data =
    Fault_inject.apply ~seed:3 ~format:Codec.Fixed
      Fault_inject.Truncate_payload records
  in
  let report = Check.Trace.lint_string data in
  match
    List.find_opt
      (fun d -> d.Check.Diagnostic.code = "RSM-T002")
      report.diagnostics
  with
  | None -> Alcotest.fail "expected an RSM-T002 diagnostic"
  | Some d ->
      (match Scanf.sscanf_opt d.subject "record %d" (fun i -> i) with
      | None ->
          Alcotest.failf "subject %S does not name a record" d.subject
      | Some index ->
          check bool "record offset in range" true
            (index >= 0 && index < total))

(* --- no escape, no hang: all organizations ---------------------------- *)

let org_grid =
  List.map
    (fun organization -> { Config.reference with organization })
    [ Config.Simple; Config.Improved; Config.Optimized ]

(* A corrupted stream must come back as structured data at one of the
   layers: a codec error, salvaged records, or a structured engine
   failure — for every configuration and never via an exception. *)
let exercise_engine data =
  match Codec.decode_degraded data with
  | Error error -> check bool "structured codec error" true
      (String.length error.Codec.error_code > 0)
  | Ok (records, _format, _salvage) ->
      List.iter
        (fun config ->
          match Resim.run ~config (Records records) with
          | Ok _ | Error (Resim.Fault _) | Error (Resim.Deadlock _) -> ()
          | Error (Resim.Refused reason) ->
              Alcotest.failf "a fresh run refused: %s" reason)
        org_grid

let test_no_escape_across_configs () =
  let records = Lazy.force base_records in
  List.iter
    (fun fault ->
      let data =
        Fault_inject.apply ~seed:11 ~format:Codec.Fixed fault records
      in
      exercise_engine data)
    Fault_inject.all

(* --- qcheck: arbitrary class x seed never escapes --------------------- *)

let class_of_index index =
  List.nth Fault_inject.all (index mod List.length Fault_inject.all)

let property_class_seed =
  QCheck.Test.make
    ~name:"any (class, seed): structured diagnostics, no escape, no hang"
    ~count:40
    QCheck.(pair (int_bound 10_000) (int_bound 12))
    (fun (seed, index) ->
      let fault = class_of_index index in
      let records = Lazy.force base_records in
      let data =
        Fault_inject.apply ~seed ~format:Codec.Fixed fault records
      in
      let report =
        Check.Trace.lint_string
          ~max_wrong_path_run:Fault_inject.default_max_run data
      in
      (* An error class must produce at least one diagnostic... *)
      let diagnosed =
        match Fault_inject.severity fault with
        | `Error | `Warning -> report.diagnostics <> []
        | `Varies -> true
      in
      (* ...and whatever survives decoding must simulate without an
         exception under the watchdog. *)
      (match Codec.decode_degraded data with
      | Error _ -> ()
      | Ok (salvaged, _format, _faults) -> (
          match Resim.run (Records salvaged) with
          | Ok _ | Error _ -> ()));
      diagnosed)

let property_random_byte =
  QCheck.Test.make
    ~name:"random single-byte corruption never escapes or hangs" ~count:40
    QCheck.(pair (int_bound 1_000_000) (int_bound 7))
    (fun (position, bit) ->
      let clean = Codec.encode (Lazy.force base_records) in
      let index = position mod String.length clean in
      let data = Bytes.of_string clean in
      Bytes.set data index
        (Char.chr (Char.code (Bytes.get data index) lxor (1 lsl bit)));
      let data = Bytes.to_string data in
      (* Either layer may find the trace acceptable (the flip can land
         in a don't-care bit); the property is purely no-escape. *)
      ignore (Check.Trace.lint_string data);
      (match Codec.decode_degraded data with
      | Error _ -> ()
      | Ok (salvaged, _format, _faults) -> (
          match Resim.run (Records salvaged) with
          | Ok _ | Error _ -> ()));
      true)

(* --- sweep fault domains ---------------------------------------------- *)

let test_sweep_partial_results () =
  let gzip = Resim_workloads.Workload.find "gzip" in
  let reference = Config.reference in
  let jobs =
    [ Sweep.job ~label:"good" ~scale:(Sweep.Exact 256) ~config:reference
        gzip;
      truncated_stream_job ~label:"corrupt" (Lazy.force base_records);
      Sweep.job ~label:"slow" ~scale:(Sweep.Exact 256) ~timeout:0.0
        ~config:reference gzip ]
  in
  let report = Sweep.run ~jobs:2 jobs in
  let counts = Sweep.counts report in
  check int "ok" 1 counts.ok;
  check int "failed" 1 counts.failed;
  check int "timed out" 1 counts.timed_out;
  check int "partial results available" 1
    (List.length (Sweep.completed report));
  let failures = Sweep.failures report in
  check int "failures reported" 2 (List.length failures);
  (match failures with
  | { Sweep.outcome = Sweep.Failed (Sweep.Fault fault); job; _ } :: _ ->
      check bool "failure keeps the job" true (job.Sweep.label = "corrupt");
      check bool "failure carries the RSM code" true
        (fault.Fault.code = "RSM-T002")
  | _ -> Alcotest.fail "expected the corrupt job to fail with its fault");
  let rendered = Format.asprintf "%a" Sweep.pp_failures report in
  check bool "failure table renders" true
    (String.length rendered > 40)

let test_sweep_truncation_and_retry () =
  let gzip = Resim_workloads.Workload.find "gzip" in
  let truncating =
    { Sweep.default_policy with max_cycles = Some 200L }
  in
  let report =
    Sweep.run ~policy:truncating ~jobs:1
      [ Sweep.job ~label:"bounded" ~scale:(Sweep.Exact 256)
          ~config:Config.reference gzip ]
  in
  let counts = Sweep.counts report in
  check int "truncated" 1 counts.truncated;
  check int "truncated counts as completed" 1
    (List.length (Sweep.completed report));
  (match report.job_reports with
  | [ { Sweep.outcome = Sweep.Truncated (_, checkpoint); _ } ] ->
      check bool "checkpoint cycle matches budget" true
        (checkpoint.Checkpoint.cycle = 200L)
  | _ -> Alcotest.fail "expected one truncated job");
  (* Deterministic failures (trace faults, deadlocks, invalid configs)
     fail identically every attempt: the runner must not burn retries
     on them. One attempt, no retry, still Failed. Host-side transients
     are the retryable class: an immediately expired per-job deadline
     times out on every attempt, so a retry budget of 1 yields exactly
     two attempts. Both entry points share one retry loop. *)
  let retrying =
    { Sweep.default_policy with
      retries = 1; backoff = 0.01; max_backoff = 0.02 }
  in
  let impatient =
    { Sweep.default_policy with
      timeout = Some 0.0; retries = 1; backoff = 0.001;
      max_backoff = 0.002 }
  in
  let runners =
    [ ( "run ~jobs:1",
        fun policy job ->
          match (Sweep.run ~policy ~jobs:1 [ job ]).job_reports with
          | [ report ] -> report
          | _ -> Alcotest.fail "expected one job report" );
      ("run_job_robust", fun policy job -> Sweep.run_job_robust ~policy job) ]
  in
  List.iter
    (fun (via, run) ->
      let report =
        run retrying
          (truncated_stream_job ~label:"corrupt" (Lazy.force base_records))
      in
      let counts = Sweep.counts { Sweep.job_reports = [ report ] } in
      check int (via ^ ": still failed") 1 counts.failed;
      check int (via ^ ": deterministic failure is not retried") 0
        counts.retried;
      check int (via ^ ": fault reported after exactly one attempt") 1
        report.attempts;
      let report =
        run impatient
          (Sweep.job ~label:"transient" ~scale:(Sweep.Exact 256)
             ~config:Config.reference gzip)
      in
      let counts = Sweep.counts { Sweep.job_reports = [ report ] } in
      check int (via ^ ": timed out") 1 counts.timed_out;
      check int (via ^ ": transient was retried") 1 counts.retried;
      check int (via ^ ": retry budget spent") 2 report.attempts;
      check bool (via ^ ": timeouts are retryable") true
        (Sweep.retryable report.outcome))
    runners;
  (* The classifier itself, over the whole outcome space. *)
  check bool "crash is retryable" true
    (Sweep.retryable (Sweep.Failed (Sweep.Crashed "boom")));
  check bool "invalid config is not retryable" false
    (Sweep.retryable (Sweep.Failed (Sweep.Invalid "bad width")))

(* The fail-fast view raises the fault the fault domain reports,
   instead of returning a short run's statistics. *)
let test_run_job_stream_fault () =
  let job = truncated_stream_job ~label:"cut" (Lazy.force base_records) in
  let reported =
    match (Sweep.run_job_robust ~policy:Sweep.default_policy job).outcome with
    | Sweep.Failed (Sweep.Fault fault) -> fault.Fault.code
    | _ -> Alcotest.fail "run_job_robust did not report a fault"
  in
  check Alcotest.string "reported code" "RSM-T002" reported;
  match Sweep.run_job job with
  | _ -> Alcotest.fail "run_job returned statistics"
  | exception Fault.Trace_fault raised ->
      check Alcotest.string "raised code" reported raised.Fault.code

(* --- checkpoint / resume ---------------------------------------------- *)

let test_checkpoint_resume_bit_identical () =
  let records = Lazy.force base_records in
  let full = (Resim.outcome_exn (Resim.run (Records records))).stats in
  match Resim.run ~max_cycles:1_000L (Records records) with
  | Error failure -> Alcotest.fail (Resim.failure_to_string failure)
  | Ok robust -> (
      check bool "stopped on the cycle budget" true
        (robust.stop = Engine.Cycle_budget);
      let checkpoint =
        match robust.resume with
        | Some checkpoint -> checkpoint
        | None -> Alcotest.fail "truncated run must yield a checkpoint"
      in
      (* Resume through the textual form, as the CLI does. *)
      let checkpoint =
        match Checkpoint.of_string (Checkpoint.to_string checkpoint) with
        | Ok checkpoint -> checkpoint
        | Error error -> Alcotest.fail (Checkpoint.error_to_string error)
      in
      match Resim.run ~resume:checkpoint (Records records) with
      | Error failure -> Alcotest.fail (Resim.failure_to_string failure)
      | Ok resumed ->
          check bool "resumed run drains" true (resumed.stop = Engine.Drained);
          check bool "resumed stats bit-identical to unbounded run" true
            (Stats.to_assoc resumed.outcome.stats = Stats.to_assoc full))

let test_resume_refuses_mismatch () =
  let records = Lazy.force base_records in
  match Resim.run ~max_cycles:1_000L (Records records) with
  | Error failure -> Alcotest.fail (Resim.failure_to_string failure)
  | Ok robust -> (
      let checkpoint =
        match robust.resume with
        | Some checkpoint -> checkpoint
        | None -> Alcotest.fail "truncated run must yield a checkpoint"
      in
      (* A trace that diverges (timing-visibly) before the checkpoint
         cycle cannot satisfy the snapshot verification. Note a foreign
         trace sharing an identical prefix past the checkpoint is
         legitimately accepted — the engine is deterministic, so the
         replayed prefix IS the checkpointed computation. *)
      let other = Array.copy records in
      other.(0) <-
        { other.(0) with
          Resim_trace.Record.payload =
            Resim_trace.Record.Other
              { op_class = Resim_trace.Record.Divide } };
      (match Resim.run ~resume:checkpoint (Records other) with
      | Error (Resim.Refused _) -> ()
      | Error failure ->
          Alcotest.failf "divergent trace: %s, not a refusal"
            (Resim.failure_to_string failure)
      | Ok _ -> Alcotest.fail "resume accepted a divergent trace");
      (* Nor can a different configuration. *)
      let config = { Config.reference with rob_entries = 32 } in
      match Resim.run ~config ~resume:checkpoint (Records records) with
      | Error (Resim.Refused _) -> ()
      | Error failure ->
          Alcotest.failf "foreign configuration: %s, not a refusal"
            (Resim.failure_to_string failure)
      | Ok _ -> Alcotest.fail "resume accepted a foreign configuration")

(* A refused resume has read exactly the records that stepping to the
   checkpoint cycle reads, none past it: what it reports of its input
   (an adapted trace's line count, a degraded run's skipped regions)
   is what the replay needed. *)
let test_refused_replay_reads_no_further () =
  let records = Lazy.force base_records in
  let counted () =
    let pulled = ref 0 in
    ( (fun () ->
        if !pulled < Array.length records then begin
          incr pulled;
          Some records.(!pulled - 1)
        end
        else None),
      pulled )
  in
  match Resim.run ~max_cycles:1_000L (Records records) with
  | Ok { resume = Some checkpoint; _ } -> (
      let pull, stepped = counted () in
      let engine =
        Engine.create_from_source (Resim_core.Source.of_pull pull)
      in
      for _ = 1 to Int64.to_int checkpoint.Checkpoint.cycle do
        Engine.step engine
      done;
      (* Same trace, one counter off: the replay runs to the end and
         only the last check refuses. *)
      let tampered =
        { checkpoint with
          Checkpoint.counters =
            List.map
              (fun (name, value) ->
                if name = "committed" then (name, Int64.succ value)
                else (name, value))
              checkpoint.Checkpoint.counters }
      in
      let pull, replayed = counted () in
      match Resim.run ~resume:tampered (Pull pull) with
      | Error (Resim.Refused _) ->
          check int "records pulled: refused replay = stepping" !stepped
            !replayed
      | Error failure -> Alcotest.fail (Resim.failure_to_string failure)
      | Ok _ -> Alcotest.fail "resume accepted a tampered checkpoint")
  | Ok _ -> Alcotest.fail "truncated run must yield a checkpoint"
  | Error failure -> Alcotest.fail (Resim.failure_to_string failure)

let test_degraded_decode_marks_stats () =
  let records = Lazy.force base_records in
  let data =
    Fault_inject.apply ~seed:5 ~format:Codec.Fixed
      Fault_inject.Truncate_payload records
  in
  match Codec.decode_degraded data with
  | Error error -> Alcotest.fail (Codec.error_to_string error)
  | Ok (salvaged, _format, faults) ->
      check bool "salvage reported" true (faults <> []);
      check bool "records salvaged" true (Array.length salvaged > 0);
      let outcome = Resim.outcome_exn (Resim.run (Records salvaged)) in
      Stats.mark_degraded ~faults:(List.length faults) outcome.stats;
      check bool "stats marked degraded" true (Stats.degraded outcome.stats)

let suite =
  [ ("fault:inject",
     [ Alcotest.test_case "every class surfaces its code" `Quick
         test_classes_surface_codes;
       Alcotest.test_case "diagnostics carry record offsets" `Quick
         test_diagnostics_carry_offsets;
       Alcotest.test_case "no escape across organizations" `Slow
         test_no_escape_across_configs;
       QCheck_alcotest.to_alcotest property_class_seed;
       QCheck_alcotest.to_alcotest property_random_byte ]);
    ("fault:sweep",
     [ Alcotest.test_case "partial results on failures" `Quick
         test_sweep_partial_results;
       Alcotest.test_case "truncation and retry" `Quick
         test_sweep_truncation_and_retry;
       Alcotest.test_case "run_job raises the stream fault" `Quick
         test_run_job_stream_fault ]);
    ("fault:checkpoint",
     [ Alcotest.test_case "resume is bit-identical" `Quick
         test_checkpoint_resume_bit_identical;
       Alcotest.test_case "resume refuses mismatches" `Quick
         test_resume_refuses_mismatch;
       Alcotest.test_case "degraded decode marks stats" `Quick
         test_degraded_decode_marks_stats;
       Alcotest.test_case "a refused replay reads no further" `Quick
         test_refused_replay_reads_no_further ]) ]
