(* Tests for the sampled-simulation layer (DESIGN.md §13) and the
   hardening satellites that shipped with it: the differential suite
   asserting the sampled IPC confidence interval covers the full-run
   IPC across the kernel x organization grid, determinism
   for a fixed seed, budget composition, the structured RSM-K
   checkpoint parse errors, the sweep timed-region pin (host_mips must
   exclude trace generation), the JSON printer and parser, and the CLI
   exit code contract. *)

module Config = Resim_core.Config
module Engine = Resim_core.Engine
module Resim = Resim_core.Resim
module Stats = Resim_core.Stats
module Checkpoint = Resim_core.Checkpoint
module Json = Resim_core.Json
module Sample = Resim_sample.Sample
module Sweep = Resim_sweep.Sweep
module Workload = Resim_workloads.Workload
module Generator = Resim_tracegen.Generator

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let str = Alcotest.string

let records_of ?(kernel = "gzip") scale =
  let workload = Workload.find kernel in
  let program = Workload.program_of workload ~scale () in
  (Generator.run program).records

let base_records = lazy (records_of 256)

(* A pull stream over an in-memory trace: the opener
   [Sweep.stream_job] takes. *)
let open_records records () =
  let at = ref 0 in
  fun () ->
    if !at >= Array.length records then None
    else begin
      incr at;
      Some records.(!at - 1)
    end

(* Does [ipc] fall within the sampled report's mean +- ci95? *)
let covers report ipc =
  (not (Float.is_nan ipc))
  && Float.abs (ipc -. report.Sample.mean_ipc) <= report.Sample.ci95

let spec_t =
  Alcotest.testable
    (fun ppf spec -> Format.pp_print_string ppf (Sample.spec_to_string spec))
    ( = )

(* --- spec parsing ------------------------------------------------------ *)

let test_spec_parse_ok () =
  (match Sample.spec_of_string "1000:19000" with
  | Ok spec ->
      check spec_t "two fields, seed defaults"
        { Sample.detail = 1000; warmup = 19000; seed = 0 }
        spec
  | Error message -> Alcotest.fail message);
  (match Sample.spec_of_string "500:4500:7" with
  | Ok spec ->
      check spec_t "three fields"
        { Sample.detail = 500; warmup = 4500; seed = 7 }
        spec
  | Error message -> Alcotest.fail message);
  (* zero warm-up is a legal (if pointless) schedule *)
  match Sample.spec_of_string "1:0" with
  | Ok spec -> check int "warmup may be zero" 0 spec.Sample.warmup
  | Error message -> Alcotest.fail message

let test_spec_round_trip () =
  List.iter
    (fun spec ->
      match Sample.spec_of_string (Sample.spec_to_string spec) with
      | Ok parsed -> check spec_t "round trip" spec parsed
      | Error message -> Alcotest.fail message)
    [ { Sample.detail = 1; warmup = 0; seed = 0 };
      { Sample.detail = 1000; warmup = 19000; seed = 0 };
      { Sample.detail = 500; warmup = 4500; seed = 12345 } ]

let test_spec_parse_errors () =
  List.iter
    (fun (raw, fragment) ->
      match Sample.spec_of_string raw with
      | Ok spec ->
          Alcotest.fail
            (Printf.sprintf "%S parsed as %s" raw
               (Sample.spec_to_string spec))
      | Error message ->
          let contains =
            let h = String.length message and n = String.length fragment in
            let rec scan i =
              i + n <= h
              && (String.sub message i n = fragment || scan (i + 1))
            in
            n = 0 || scan 0
          in
          check bool
            (Printf.sprintf "%S error names the field (%S in %S)" raw
               fragment message)
            true contains)
    [ ("", "expected");
      ("1000", "expected");
      ("0:100", "detail");
      ("-5:100", "detail");
      ("10:x", "warmup");
      ("10:-1", "warmup");
      ("10:5:-2", "seed");
      ("10:5:zz", "seed");
      ("1:2:3:4", "expected") ]

(* --- engine warm-up primitives ----------------------------------------- *)

let test_functional_warmup_advances () =
  let records = Lazy.force base_records in
  let full =
    Stats.get_int Stats.committed
      (Resim.outcome_exn (Resim.run (Records records))).stats
  in
  let engine = Engine.create records in
  check bool "fresh pipeline is empty" true (Engine.pipeline_empty engine);
  let warmed = Engine.functional_warmup engine ~max_instructions:50 in
  check int "warms exactly the requested instructions" 50 warmed;
  check bool "cursor advanced" true (Engine.cursor engine > 0);
  check bool "no cycles burned" true (Engine.cycle engine = 0L);
  (* The detailed remainder picks up where the warm-up left off. *)
  (match Engine.run_bounded engine with
  | { Engine.stop = Engine.Drained; _ } -> ()
  | _ -> Alcotest.fail "remainder did not drain");
  check int "warmed + detailed covers the whole trace" full
    (warmed + Stats.get_int Stats.committed (Engine.stats engine));
  (* Asking for more than remains warms what is left and stops. *)
  let engine = Engine.create records in
  let all = Engine.functional_warmup engine ~max_instructions:max_int in
  check int "warm-up stops at the end of the trace" full all

let test_commit_target () =
  let records = Lazy.force base_records in
  let engine = Engine.create records in
  let bounded = Engine.run_bounded ~max_commits:100 engine in
  check bool "stops on the commit target" true
    (bounded.Engine.stop = Engine.Commit_target);
  let committed = Stats.get_int Stats.committed (Engine.stats engine) in
  check bool "committed reached the target" true (committed >= 100);
  (* Overshoot is bounded by one commit window. *)
  check bool "overshoot within one cycle's commits" true
    (committed <= 100 + (Engine.config engine).Config.width);
  check bool "truncated run carries a resume point" true
    (bounded.Engine.resume <> None);
  (* The target is absolute: a second call with the same target is a
     no-op, a higher target continues. *)
  let again = Engine.run_bounded ~max_commits:100 engine in
  check bool "same target is an immediate stop" true
    (again.Engine.stop = Engine.Commit_target);
  check int "no further commits" committed
    (Stats.get_int Stats.committed (Engine.stats engine));
  match Engine.run_bounded engine with
  | { Engine.stop = Engine.Drained; _ } -> ()
  | _ -> Alcotest.fail "unbounded continuation did not drain"

(* --- the differential suite -------------------------------------------- *)

let org_grid =
  List.map
    (fun organization -> { Config.reference with organization })
    [ Config.Simple; Config.Improved; Config.Optimized ]

(* For every kernel and every organization: the
   full detailed run's IPC must fall inside the sampled run's reported
   95% confidence interval, non-vacuously (enough intervals for a
   finite CI). This is the acceptance gate from the issue. *)
let test_differential_grid () =
  let spec = { Sample.detail = 200; warmup = 1800; seed = 11 } in
  List.iter
    (fun workload ->
      let name = Workload.name_of workload in
      let program = Workload.program_of workload ~scale:4000 () in
      let records = (Generator.run program).records in
      List.iter
        (fun config ->
          let label =
            Printf.sprintf "%s/%s" name
              (Config.organization_name config.Config.organization)
          in
          let full_ipc =
            Stats.ipc
              (Resim.outcome_exn (Resim.run ~config (Records records))).stats
          in
          match Sample.run ~config ~spec (Resim.Records records) with
          | Error failure ->
              Alcotest.fail (label ^ ": " ^ Resim.failure_to_string failure)
          | Ok (robust, report) ->
              check bool (label ^ ": sampled run drains") true
                (robust.Resim.stop = Engine.Drained);
              check bool (label ^ ": enough intervals for a finite CI")
                true
                (Float.is_finite report.Sample.ci95
                && List.length report.Sample.intervals >= 2);
              check bool
                (Printf.sprintf "%s: CI covers full IPC (%.4f in %.4f +- %.4f)"
                   label full_ipc report.Sample.mean_ipc report.Sample.ci95)
                true
                (covers report full_ipc))
        org_grid)
    Workload.all

let test_determinism () =
  let records = Lazy.force base_records in
  let spec = { Sample.detail = 100; warmup = 400; seed = 42 } in
  let run () =
    match Sample.run ~spec (Resim.Records records) with
    | Ok (_, report) -> report
    | Error failure -> Alcotest.fail (Resim.failure_to_string failure)
  in
  let first = run () and second = run () in
  check bool "identical report for a fixed seed" true (first = second);
  (* A different seed moves the initial offset (and with it the
     interval boundaries) for this period. *)
  let moved =
    match
      Sample.run ~spec:{ spec with Sample.seed = 43 } (Resim.Records records)
    with
    | Ok (_, report) -> report
    | Error failure -> Alcotest.fail (Resim.failure_to_string failure)
  in
  check bool "seed moves the initial offset" true
    (moved.Sample.initial_offset <> first.Sample.initial_offset)

(* For a drained sampled run, every instruction of the trace is either
   committed by the engine (priming and measured windows alike) or
   functionally warmed, exactly once; and each period of
   [detail + warmup] instructions measures at most [detail] of them.
   This is the deterministic form of "sampling does less detailed
   work": a gap that drops an instruction, or runs in detail, breaks
   one of the two. *)
let test_report_accounting () =
  let specs =
    [ { Sample.detail = 500; warmup = 4500; seed = 7 };
      { Sample.detail = 100; warmup = 400; seed = 3 };
      { Sample.detail = 300; warmup = 700; seed = 11 } ]
  in
  List.iter
    (fun workload ->
      let records = (Generator.run (Workload.program_of workload ())).records in
      let full =
        Stats.get_int Stats.committed
          (Resim.outcome_exn (Resim.run (Records records))).stats
      in
      List.iter
        (fun (spec : Sample.spec) ->
          let label =
            Printf.sprintf "%s %s" (Workload.name_of workload)
              (Sample.spec_to_string spec)
          in
          match Sample.run ~spec (Resim.Records records) with
          | Error failure ->
              Alcotest.fail (label ^ ": " ^ Resim.failure_to_string failure)
          | Ok (robust, report) ->
              check bool (label ^ ": drains") true
                (robust.Resim.stop = Engine.Drained);
              check bool (label ^ ": measured something") true
                (report.Sample.detailed_instructions > 0);
              check bool (label ^ ": warmed something") true
                (report.Sample.warmed_instructions > 0);
              check int (label ^ ": committed + warmed = the full run") full
                (Stats.get_int Stats.committed robust.Resim.outcome.Resim.stats
                + report.Sample.warmed_instructions);
              let period = spec.detail + spec.warmup in
              check bool (label ^ ": at most detail per period") true
                (report.Sample.detailed_instructions
                <= (full + period - 1) / period * spec.detail);
              List.iteri
                (fun index interval ->
                  check int "intervals are in order" index
                    interval.Sample.index;
                  check bool "interval IPC is cycles/instructions" true
                    (Float.abs
                       (interval.Sample.interval_ipc
                       -. float_of_int interval.Sample.instructions
                          /. Int64.to_float interval.Sample.cycles)
                    < 1e-9))
                report.Sample.intervals)
        specs)
    Workload.all

(* --- budget composition ------------------------------------------------ *)

let test_sample_cycle_budget () =
  let records = Lazy.force base_records in
  let spec = { Sample.detail = 100; warmup = 100; seed = 0 } in
  match Sample.run ~max_cycles:120L ~spec (Resim.Records records) with
  | Error failure -> Alcotest.fail (Resim.failure_to_string failure)
  | Ok (robust, report) ->
      check bool "stops on the cycle budget" true
        (robust.Resim.stop = Engine.Cycle_budget);
      (match robust.Resim.resume with
      | Some checkpoint ->
          check bool "checkpoint pinned to the budget" true
            (checkpoint.Checkpoint.cycle = 120L)
      | None -> Alcotest.fail "truncated sampled run must yield a resume");
      (* The partial report is still published. *)
      check bool "partial report accounts its windows" true
        (report.Sample.detailed_instructions >= 0)

let test_sample_deadline () =
  let records = Lazy.force base_records in
  (* The engine polls the deadline every 256 cycles, so the detailed
     interval must be long enough to reach a poll point. *)
  let spec = { Sample.detail = 2000; warmup = 0; seed = 0 } in
  match Sample.run ~deadline:(fun () -> true) ~spec (Resim.Records records) with
  | Error failure -> Alcotest.fail (Resim.failure_to_string failure)
  | Ok (robust, _) ->
      check bool "stops on the deadline" true
        (robust.Resim.stop = Engine.Time_budget)

let test_sweep_sampled_job () =
  let records = Lazy.force base_records in
  let spec = { Sample.detail = 100; warmup = 400; seed = 5 } in
  let job =
    Sweep.stream_job ~label:"sampled" ~sample:spec ~config:Config.reference
      (open_records records)
  in
  let result = Sweep.run_job job in
  (match result.Sweep.sample_report with
  | Some report ->
      check bool "sweep result carries the sampled report" true
        (report.Sample.detailed_instructions > 0)
  | None -> Alcotest.fail "sampled job lost its report");
  (* And through the pooled robust path. *)
  match (Sweep.run ~jobs:1 [ job ]).Sweep.job_reports with
  | [ { Sweep.outcome = Sweep.Ok result; _ } ] ->
      check bool "pooled sampled job keeps the report" true
        (result.Sweep.sample_report <> None)
  | _ -> Alcotest.fail "sampled sweep job did not complete"

(* A sampled job over a pulled trace samples like the same records in
   an array: equal statistics and an equal report. (Sampling used to be
   dropped on pulled traces, so the job ran fully detailed.) *)
let test_sweep_sampled_stream_job () =
  let records = Lazy.force base_records in
  let spec = { Sample.detail = 100; warmup = 400; seed = 5 } in
  let config = Config.reference in
  let open_stream = open_records records in
  check bool "stream_job carries its sample spec" true
    ((Sweep.stream_job ~sample:spec ~config open_stream).Sweep.sample
    = Some spec);
  let pulled_job =
    { (Sweep.stream_job ~label:"pulled" ~config open_stream) with
      Sweep.sample = Some spec }
  in
  let pulled_result = Sweep.run_job pulled_job in
  match Sample.run ~config ~spec (Resim.Records records) with
  | Error failure -> Alcotest.fail (Resim.failure_to_string failure)
  | Ok (robust, expected) -> (
      check str "statistics"
        (Stats.to_json robust.Resim.outcome.Resim.stats)
        (Stats.to_json pulled_result.Sweep.outcome.Resim.stats);
      match pulled_result.Sweep.sample_report with
      | Some report ->
          check str "sample report"
            (Sample.report_to_json expected)
            (Sample.report_to_json report)
      | None -> Alcotest.fail "pulled job ran unsampled")

(* --- checkpoint: structured RSM-K parse errors ------------------------- *)

let checkpoint_error raw =
  match Checkpoint.of_string raw with
  | Ok _ -> Alcotest.fail (Printf.sprintf "accepted malformed %S" raw)
  | Error error -> error

let test_checkpoint_malformations () =
  List.iter
    (fun (raw, code, line) ->
      let error = checkpoint_error raw in
      check str (Printf.sprintf "%S code" raw) code error.Checkpoint.code;
      check int (Printf.sprintf "%S line" raw) line error.Checkpoint.line)
    [ (* whole-document conditions *)
      ("", "RSM-K001", 0);
      ("\n\n", "RSM-K001", 0);
      (* bad header *)
      ("RSCP 2\ncycle 1\ncursor 2\n", "RSM-K002", 1);
      ("bogus\ncycle 1\ncursor 2\n", "RSM-K002", 1);
      (* malformed line (line numbers are raw positions in the
         document, so the blank line still counts) *)
      ("RSCP 1\ncycle 1\n\nwhat is this\ncursor 2\n", "RSM-K003", 4);
      ("RSCP 1\ncycle 1 extra\ncursor 2\n", "RSM-K003", 2);
      (* unparseable values: signed, hex and underscores are refused
         even though OCaml's own of_string accepts them *)
      ("RSCP 1\ncycle -1\ncursor 2\n", "RSM-K004", 2);
      ("RSCP 1\ncycle 0x10\ncursor 2\n", "RSM-K004", 2);
      ("RSCP 1\ncycle 1_000\ncursor 2\n", "RSM-K004", 2);
      ("RSCP 1\ncycle 1\ncursor +2\n", "RSM-K004", 3);
      ("RSCP 1\ncycle 1\ncursor 2\ncounter commit x\n", "RSM-K004", 4);
      (* duplicates *)
      ("RSCP 1\ncycle 1\ncycle 2\ncursor 2\n", "RSM-K005", 3);
      ("RSCP 1\ncycle 1\ncursor 2\ncursor 3\n", "RSM-K005", 4);
      ( "RSCP 1\ncycle 1\ncursor 2\ncounter a 1\ncounter a 2\n",
        "RSM-K005", 5 );
      (* missing required keys *)
      ("RSCP 1\ncursor 2\n", "RSM-K006", 0);
      ("RSCP 1\ncycle 1\n", "RSM-K006", 0) ]

let test_checkpoint_load_io_error () =
  match Checkpoint.load "/nonexistent/definitely/missing.rscp" with
  | Ok _ -> Alcotest.fail "loaded a nonexistent file"
  | Error error ->
      check str "IO failures are RSM-K000" "RSM-K000" error.Checkpoint.code

let test_checkpoint_error_to_string () =
  check str "with line"
    "RSM-K003: line 4: malformed line \"x\""
    (Checkpoint.error_to_string
       { Checkpoint.code = "RSM-K003"; line = 4;
         reason = "malformed line \"x\"" });
  check str "whole-document" "RSM-K001: empty checkpoint"
    (Checkpoint.error_to_string
       { Checkpoint.code = "RSM-K001"; line = 0; reason = "empty checkpoint" })

(* --- sweep: the timed region excludes trace generation ----------------- *)

(* A kernel whose trace *generation* is slow but whose simulation is
   tiny: if host_mips's wall-clock window ever includes the generation
   phase again, the measured wall time jumps past the sleep and this
   test fails. *)
module Slow_generation = struct
  let name = "slowgen"
  let description = "deliberately slow trace generation (timing test)"

  let program ?scale () =
    Unix.sleepf 0.3;
    Workload.program_of (Workload.find "gzip") ?scale ()

  let evaluation_scale = 256

  let profile = Resim_workloads.Gzip_like.profile
end

let test_sweep_times_simulate_only () =
  let job =
    Sweep.job ~label:"slowgen" ~scale:(Sweep.Exact 256)
      ~config:Config.reference
      (module Slow_generation : Resim_workloads.Kernel_sig.S)
  in
  (* Serial fail-fast path. *)
  let result = Sweep.run_job job in
  check bool "wall_seconds excludes generation (run_job)" true
    (result.Sweep.telemetry.Sweep.wall_seconds < 0.25);
  check bool "host_mips is positive" true
    (result.Sweep.telemetry.Sweep.host_mips > 0.0);
  (* Pooled robust path. *)
  match (Sweep.run ~jobs:1 [ job ]).Sweep.job_reports with
  | [ { Sweep.outcome = Sweep.Ok result; _ } ] ->
      check bool "wall_seconds excludes generation (pooled)" true
        (result.Sweep.telemetry.Sweep.wall_seconds < 0.25)
  | _ -> Alcotest.fail "slow-generation job did not complete"

(* A drained sampled job covers the whole trace, as the unsampled run
   does, and its host MIPS counts the functional warm-up the window
   also spans: MIPS x seconds gives back the full run's commits. *)
let test_sweep_sampled_host_mips () =
  let records = Lazy.force base_records in
  let config = Config.reference in
  let full =
    Stats.get_int Stats.committed
      (Resim.outcome_exn (Resim.run ~config (Records records))).stats
  in
  let spec = { Sample.detail = 100; warmup = 400; seed = 5 } in
  let result =
    Sweep.run_job
      (Sweep.stream_job ~label:"sampled" ~sample:spec ~config
         (open_records records))
  in
  let telemetry = result.Sweep.telemetry in
  check int "host_mips x wall_seconds is the full run's committed" full
    (Float.to_int
       (Float.round
          (telemetry.Sweep.host_mips *. telemetry.Sweep.wall_seconds *. 1e6)))

(* --- JSON: every emitter produces parseable documents ------------------ *)

let validates label document =
  match Json.parse document with
  | Ok _ -> ()
  | Error message ->
      Alcotest.fail (Printf.sprintf "%s: invalid JSON (%s)" label message)

(* Free-form strings reach the emitters through job labels, profiler
   section names and kernel names; this is the string that broke the
   old per-module escapers. *)
let evil = "a\"b\\c\ntab\tctrl\x01slash/close}"

let test_emitters_parse () =
  let records = Lazy.force base_records in
  let outcome = Resim.outcome_exn (Resim.run (Records records)) in
  validates "Stats.to_json" (Stats.to_json outcome.Resim.stats);
  (* sweep metrics with an adversarial label, sampled and unsampled *)
  let spec = { Sample.detail = 100; warmup = 400; seed = 1 } in
  let report =
    Sweep.run ~jobs:1
      [ Sweep.stream_job ~label:evil ~config:Config.reference
          (open_records records);
        Sweep.stream_job ~label:evil ~sample:spec ~config:Config.reference
          (open_records records) ]
  in
  validates "Sweep.metrics_json" (Sweep.metrics_json report);
  (* sample report and the spliced --metrics document *)
  (match Sample.run ~spec (Resim.Records records) with
  | Error failure -> Alcotest.fail (Resim.failure_to_string failure)
  | Ok (robust, sample_report) ->
      validates "Sample.report_to_json" (Sample.report_to_json sample_report);
      validates "Json.append_members"
        (Json.append_members
           (Stats.to_json robust.Resim.outcome.Resim.stats)
           [ ("sample", Json.Raw (Sample.report_to_json sample_report)) ]));
  (* profiler sections with adversarial names *)
  let prof = Resim_obs.Prof.create () in
  Resim_obs.Prof.time prof evil (fun () -> ());
  validates "Prof.to_json" (Resim_obs.Prof.to_json prof)

(* Strings up to 4 KiB: plain runs of any length broken by the bytes the
   escaper and the parser treat specially. *)
let gen_long_string =
  let open QCheck.Gen in
  let plain = string_size ~gen:(char_range ' ' '~') (int_bound 600) in
  let special =
    map (String.make 1)
      (oneof [ return '"'; return '\\'; char_range '\000' '\031';
               char_range '\128' '\255' ])
  in
  map
    (fun parts ->
      let s = String.concat "" parts in
      String.sub s 0 (min 4096 (String.length s)))
    (list_size (int_bound 40) (frequency [ (1, plain); (2, special) ]))

let property_escape_round_trips =
  QCheck.Test.make ~name:"any string: Json.quote emits parseable JSON"
    ~count:500
    (QCheck.make ~print:String.escaped gen_long_string)
    (fun s -> Json.parse (Json.quote s) = Ok (Json.String s))

(* A string error after a long plain run keeps its offset and message. *)
let test_string_errors () =
  let run = String.make 5000 'a' in
  List.iter
    (fun (label, document, expected) ->
      check (Alcotest.result Alcotest.reject str) label (Error expected)
        (Result.map ignore (Json.parse document)))
    [ ("unterminated string", "\"" ^ run, "offset 5001: unterminated string");
      ( "raw control byte",
        "\"" ^ run ^ "\x01\"",
        "offset 5001: raw control character" );
      ("bad escape", "\"" ^ run ^ "\\q\"", "offset 5002: bad escape \\'q'");
      ( "unterminated escape",
        "\"" ^ run ^ "\\",
        "offset 5002: unterminated escape" ) ]

(* The bytes of the sampled report: compact, six decimals, and [null]
   for a CI that is not finite. *)
let test_report_bytes () =
  let interval index interval_ipc =
    { Sample.index; start_cursor = 100 * index; instructions = 50;
      cycles = 40L; interval_ipc }
  in
  check str "finite ci95"
    {|{"spec":{"detail":50,"warmup":450,"seed":7},"initial_offset":13,"intervals":2,"discarded_partial":1,"mean_ipc":0.791667,"ci95":0.666667,"detailed_instructions":100,"warmed_instructions":900,"interval_ipc":[1.250000,0.333333]}|}
    (Sample.report_to_json
       { Sample.spec = { Sample.detail = 50; warmup = 450; seed = 7 };
         initial_offset = 13;
         intervals = [ interval 0 1.25; interval 1 (1.0 /. 3.0) ];
         discarded_partial = 1; mean_ipc = 0.7916666; ci95 = 2.0 /. 3.0;
         detailed_instructions = 100; warmed_instructions = 900 });
  check str "infinite ci95"
    {|{"spec":{"detail":200,"warmup":0,"seed":0},"initial_offset":0,"intervals":1,"discarded_partial":0,"mean_ipc":2.500000,"ci95":null,"detailed_instructions":200,"warmed_instructions":0,"interval_ipc":[2.500000]}|}
    (Sample.report_to_json
       { Sample.spec = { Sample.detail = 200; warmup = 0; seed = 0 };
         initial_offset = 0; intervals = [ interval 0 2.5 ];
         discarded_partial = 0; mean_ipc = 2.5; ci95 = infinity;
         detailed_instructions = 200; warmed_instructions = 0 })

let test_printer () =
  let nested =
    Json.Obj
      [ ("a", Json.List [ Json.int 1; Json.Number 2.5; Json.Null ]);
        ("b", Json.Obj [ ("c", Json.Bool true); ("d", Json.String "x\"y") ]) ]
  in
  check str "compact" {|{"a":[1,2.5,null],"b":{"c":true,"d":"x\"y"}}|}
    (Json.to_string nested);
  check str "lines"
    "{\n  \"a\": [1, 2.5, null],\n  \"b\": {\"c\": true, \"d\": \"x\\\"y\"}\n}\n"
    (Json.to_string ~layout:Json.Lines nested);
  check str "numbers"
    "[3,-0.1,1e+300,0.30000000000000004,1.2345678901234568e+17]"
    (Json.to_string
       (Json.List
          (List.map
             (fun f -> Json.Number f)
             [ 3.0; -0.1; 1e300; 0.1 +. 0.2; 123456789012345678.0 ])));
  check str "non-finite floats are null" "[null,null,null,null,null]"
    (Json.to_string
       (Json.List
          [ Json.Number nan; Json.Number infinity; Json.Number neg_infinity;
            Json.fixed 6 nan; Json.fixed 6 infinity ]));
  check str "fixed precision" "[0.333333,0.3333,3]"
    (Json.to_string
       (Json.List
          [ Json.fixed 6 (1. /. 3.); Json.fixed 4 (1. /. 3.); Json.fixed 0 3.2 ]))

(* What RFC 8259 forbids is an error at the offending byte: a leading
   zero, an unpaired surrogate. A surrogate pair — how Python's
   [json.dumps] writes any character above U+FFFF — decodes to one
   4-byte UTF-8 sequence. *)
let test_parser_strictness () =
  let rejects label document offset reason =
    match Json.parse document with
    | Ok _ -> Alcotest.failf "%s: %S parsed" label document
    | Error message ->
        check str label (Printf.sprintf "offset %d: %s" offset reason) message
  in
  check bool "surrogate pair is one code point" true
    (Json.parse {|"\ud83d\ude00"|} = Ok (Json.String "\xf0\x9f\x98\x80"));
  check bool "BMP escape is three bytes" true
    (Json.parse {|"\u20ac"|} = Ok (Json.String "\xe2\x82\xac"));
  rejects "lone high surrogate" {|"\ud83d"|} 1 {|unpaired surrogate \ud83d|};
  rejects "lone low surrogate" {|["\ude00"]|} 2 {|unpaired surrogate \ude00|};
  rejects "high surrogate before a letter" {|"\ud83dx"|} 1
    {|unpaired surrogate \ud83d|};
  rejects "high surrogate before a BMP escape" {|"\ud83d\u0041"|} 1
    {|unpaired surrogate \ud83d|};
  rejects "leading zero" "01" 1 "leading zero in number";
  rejects "negative leading zero" "-01" 2 "leading zero in number";
  rejects "leading zero in an array" "[1, 00.5]" 5 "leading zero in number";
  List.iter
    (fun (document, expected) ->
      check bool document true
        (Json.parse document = Ok (Json.Number expected)))
    [ ("0", 0.); ("-0", -0.); ("0.5", 0.5); ("10", 10.); ("-0e3", -0.);
      ("1E2", 100.) ];
  (* the wire reads through the same parser: RSM-S003 *)
  match Resim_serve.Protocol.decode_request {|{"v":01}|} with
  | Error { Resim_serve.Protocol.code = "RSM-S003"; detail } ->
      check str "wire detail" "offset 6: leading zero in number" detail
  | _ -> Alcotest.fail "a leading zero on the wire should be RSM-S003"

(* Values as [parse] returns them (no [Raw]) print and parse back equal,
   in both layouts. *)
let gen_json =
  let open QCheck.Gen in
  let text = string_size ~gen:char (int_bound 8) in
  let number =
    oneof
      [ map float_of_int small_signed_int;
        map (fun f -> if Float.is_finite f then f else 0.5) float ]
  in
  let scalar =
    oneof
      [ return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun f -> Json.Number f) number;
        map (fun s -> Json.String s) text ]
  in
  let rec value depth =
    if depth = 0 then scalar
    else
      frequency
        [ (2, scalar);
          ( 1,
            map
              (fun l -> Json.List l)
              (list_size (int_bound 4) (value (depth - 1))) );
          ( 1,
            map
              (fun m -> Json.Obj m)
              (list_size (int_bound 4) (pair text (value (depth - 1)))) ) ]
  in
  value 3

let property_print_parse =
  QCheck.Test.make ~name:"any value: parse (to_string v) = Ok v" ~count:500
    (QCheck.make gen_json) (fun v ->
      Json.parse (Json.to_string v) = Ok v
      && Json.parse (Json.to_string ~layout:Json.Lines v) = Ok v)

let property_sample_spec_json =
  QCheck.Test.make
    ~name:"any spec: the sampled report JSON is parseable" ~count:20
    QCheck.(pair (int_range 1 50) (int_range 0 200))
    (fun (detail, warmup) ->
      let records = Lazy.force base_records in
      let spec = { Sample.detail; warmup; seed = detail + warmup } in
      match Sample.run ~spec (Resim.Records records) with
      | Error _ -> false
      | Ok (_, report) ->
          Result.is_ok (Json.parse (Sample.report_to_json report)))

(* --- CLI exit codes ---------------------------------------------------- *)

(* The binary sits next to the test executable's directory inside
   _build/default. *)
let cli =
  Filename.concat
    (Filename.concat
       (Filename.dirname (Filename.dirname Sys.executable_name))
       "bin")
    "resim_cli.exe"

let run_cli args =
  Sys.command
    (Printf.sprintf "%s %s > /dev/null 2> /dev/null"
       (Filename.quote cli) args)

(* Exit code, stdout and stderr of one CLI run. *)
let cli_output args =
  let out = Filename.temp_file "resim_test" ".out" in
  let err = Filename.temp_file "resim_test" ".err" in
  let code =
    Sys.command
      (Printf.sprintf "%s %s > %s 2> %s" (Filename.quote cli) args
         (Filename.quote out) (Filename.quote err))
  in
  let read path =
    let text = In_channel.with_open_text path In_channel.input_all in
    Sys.remove path;
    text
  in
  let stdout = read out in
  (code, stdout, read err)

let contains document needle =
  let n = String.length document and m = String.length needle in
  let rec scan i = i + m <= n && (String.sub document i m = needle || scan (i + 1)) in
  scan 0

let write_tmp suffix content =
  let path = Filename.temp_file "resim_test" suffix in
  let oc = open_out_bin path in
  output_string oc content;
  close_out oc;
  path

let test_cli_exit_codes () =
  check bool ("CLI binary present at " ^ cli) true (Sys.file_exists cli);
  let corrupt_trace = write_tmp ".trace" "this is not a trace\n" in
  let bad_checkpoint = write_tmp ".rscp" "RSCP 1\ncycle 0x10\ncursor 2\n" in
  let good_text = write_tmp ".trc" "1000 0 1 2 3\n1004 0 2 1 1\n1000 0 1 2 3\n" in
  let bad_text = write_tmp ".trc" "1000 0 1 2 3\n1004 9 1 2 3\n" in
  let sharded =
    (Generator.run (Workload.program_of (Workload.find "gzip") ~scale:512 ()))
      .records
  in
  let good_trace = write_tmp ".rtr" (Resim_trace.Codec.encode sharded) in
  (* A damaged trace: degraded resync salvages it (exit 0) unless what
     it salvages breaks the tag-bit protocol mid-run (exit 3). *)
  let damaged_trace =
    write_tmp ".rtr"
      (Resim_trace.Fault_inject.apply ~seed:2 Resim_trace.Fault_inject.Bit_flip
         sharded)
  in
  let cases =
    [ ("clean simulate", "simulate -k gzip -s 200", 0);
      ("sampled simulate", "simulate -k gzip -s 2000 --sample 50:450:3", 0);
      ("bad --sample spec", "simulate -k gzip -s 200 --sample nonsense", 2);
      ("zero-detail --sample", "simulate -k gzip -s 200 --sample 0:100", 2);
      ("negative --sample warm-up", "simulate -k gzip -s 200 --sample 100:-1", 2);
      ("four-field --sample", "simulate -k gzip -s 200 --sample 1:2:3:4", 2);
      ("sweep bad --sample", "sweep --quick --sample 0:5", 2);
      ( "sample + resume refused",
        Printf.sprintf "simulate -k gzip --sample 50:450 --resume %s"
          (Filename.quote bad_checkpoint),
        2 );
      ( "malformed checkpoint refused",
        Printf.sprintf "simulate -k gzip -s 200 --resume %s"
          (Filename.quote bad_checkpoint),
        2 );
      ("invalid config", "vhdl -w 0", 2);
      ( "lint errors",
        Printf.sprintf "lint %s" (Filename.quote corrupt_trace),
        1 );
      ( "trace fault",
        Printf.sprintf "simulate -t %s" (Filename.quote corrupt_trace),
        3 );
      (* the trace-frontier surface: missing files are a typed exit-2
         usage error, malformed foreign input a typed exit-1, clean
         foreign and streamed runs exit 0 *)
      ("missing trace file", "simulate -t /nonexistent/no-such.rtr", 2);
      ( "profile of a directory",
        Printf.sprintf "profile -t %s"
          (Filename.quote (Filename.get_temp_dir_name ())),
        2 );
      ("missing foreign file", "simulate -t /nonexistent/no.trc --format text", 2);
      ( "clean foreign text",
        Printf.sprintf "simulate -t %s --format text" (Filename.quote good_text),
        0 );
      ( "clean foreign text streamed",
        Printf.sprintf "simulate -t %s --format text --stream"
          (Filename.quote good_text),
        0 );
      ( "malformed foreign line",
        Printf.sprintf "simulate -t %s --format text" (Filename.quote bad_text),
        1 );
      ( "malformed foreign lint",
        Printf.sprintf "lint %s --format text" (Filename.quote bad_text),
        1 );
      (* every trace file streams: sampling, stdin and the no-op
         --stream flag need nothing else *)
      ( "streamed sample",
        Printf.sprintf "simulate -t %s --sample 50:450"
          (Filename.quote good_trace),
        0 );
      ( "stdin without a flag",
        Printf.sprintf "simulate -t - < %s" (Filename.quote good_trace),
        0 ) ]
  in
  (* Rows that also pin bytes of the --metrics document: the engine
     identity perfbench's simulate-file golden digest hashes, and the
     same identity after a resume. *)
  let fresh_metrics = Filename.temp_file "resim_test" ".json" in
  let resumed_metrics = Filename.temp_file "resim_test" ".json" in
  let profile_json = Filename.temp_file "resim_test" ".json" in
  let checkpoint = Filename.temp_file "resim_test" ".rscp" in
  let reference_variant = "optimized-event-w4-rob16-lsq8-rp2wp1" in
  let reference_identity =
    [ "\"specialized\": true"; "\"variant\": \"" ^ reference_variant ^ "\"" ]
  in
  (* Every document the CLI writes parses, and names the engine that
     produced it. *)
  let names_the_engine label path =
    match Json.parse (In_channel.with_open_text path In_channel.input_all) with
    | Error message -> Alcotest.failf "%s: invalid JSON (%s)" label message
    | Ok document ->
        check bool (label ^ ": specialized") true
          (Json.member "specialized" document = Some (Json.Bool true));
        check (Alcotest.option str) (label ^ ": variant")
          (Some reference_variant)
          (Option.bind (Json.member "variant" document) Json.string_value)
  in
  let metrics_cases =
    [ ( "simulate --metrics names the engine",
        Printf.sprintf "simulate -k gzip -s 512 --metrics %s"
          (Filename.quote fresh_metrics),
        fresh_metrics );
      ( "resume --metrics names the same engine",
        Printf.sprintf "simulate -k gzip -s 512 --resume %s --metrics %s"
          (Filename.quote checkpoint)
          (Filename.quote resumed_metrics),
        resumed_metrics ) ]
  in
  let sweep_metrics = Filename.temp_file "resim_test" ".json" in
  (* A shard set: `profile -t` on one shard profiles the whole set, as
     `simulate -t` reads it. *)
  let shard_stem = Filename.temp_file "resim_test_shard" "" in
  let shards =
    Resim_trace.Codec.Shard.write ~records_per_shard:1000 ~stem:shard_stem
      sharded
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter Sys.remove
        ([ corrupt_trace; bad_checkpoint; good_text; bad_text; good_trace;
           damaged_trace; fresh_metrics; resumed_metrics; profile_json;
           checkpoint; sweep_metrics; shard_stem ]
        @ shards))
    (fun () ->
      List.iter
        (fun (label, args, expected) ->
          check int (Printf.sprintf "%s (`resim %s`)" label args) expected
            (run_cli args))
        cases;
      (let args =
         Printf.sprintf "simulate -t %s --degraded resync"
           (Filename.quote damaged_trace)
       in
       let code = run_cli args in
       check bool
         (Printf.sprintf "degraded resync (`resim %s`) exits 0 or 3, got %d"
            args code)
         true
         (code = 0 || code = 3));
      (* Every corruption class end to end: faultgen writes it, lint
         exits with the class's severity and names its RSM-T code (told
         the injected runaway's bound, or RSM-T007 cannot fire), and a
         degraded resync run ends in a structured outcome. *)
      List.iter
        (fun fault ->
          let module Inject = Resim_trace.Fault_inject in
          let name = Inject.name fault in
          let trace = Filename.temp_file "resim_test" ".trace" in
          Fun.protect
            ~finally:(fun () -> Sys.remove trace)
            (fun () ->
              check int (name ^ ": faultgen exits 0") 0
                (run_cli
                   (Printf.sprintf
                      "faultgen -k gzip -s 256 --fault %s --seed 3 -o %s" name
                      (Filename.quote trace)));
              let code, out, err =
                cli_output
                  (Printf.sprintf "lint --max-wrong-path-run %d %s"
                     Inject.default_max_run (Filename.quote trace))
              in
              let names_its_code () =
                match Inject.expected_code fault with
                | Some expected ->
                    check bool
                      (Printf.sprintf "%s: lint names %s" name expected)
                      true
                      (contains (out ^ err) expected)
                | None -> ()
              in
              (match Inject.severity fault with
              | `Error ->
                  check int (name ^ ": lint exits 1 (error)") 1 code;
                  names_its_code ()
              | `Warning ->
                  check int (name ^ ": lint exits 0 (warning)") 0 code;
                  names_its_code ()
              | `Varies ->
                  check bool
                    (Printf.sprintf "%s: lint exits 0 or 1, got %d" name code)
                    true
                    (code = 0 || code = 1));
              let code =
                run_cli
                  (Printf.sprintf "simulate -t %s --degraded resync"
                     (Filename.quote trace))
              in
              check bool
                (Printf.sprintf "%s: degraded resync exits 0 or 3, got %d"
                   name code)
                true
                (code = 0 || code = 3)))
        Resim_trace.Fault_inject.all;
      (* An unwritable output path is a usage error that names the
         path, not an uncaught exception. *)
      List.iter
        (fun (label, args, path) ->
          let code, _, errors = cli_output args in
          check int (Printf.sprintf "%s (`resim %s`)" label args) 2 code;
          check bool (label ^ ": stderr names the path") true
            (contains errors (path ^ ": "));
          check bool (label ^ ": no internal error") false
            (contains errors "internal error"))
        [ ( "metrics into a missing directory",
            "simulate -k gzip -s 200 --metrics /nonexistent/m.json",
            "/nonexistent/m.json" );
          ( "trace into a missing directory",
            "tracegen -k gzip -s 200 -o /nonexistent/k.rtr",
            "/nonexistent/k.rtr" );
          (* a full device fails the write itself, not the open: the
             checkpoint when it is flushed, the pipetrace mid-run *)
          ( "checkpoint onto a full device",
            Printf.sprintf "simulate -t %s --max-cycles 500 --checkpoint /dev/full"
              (Filename.quote good_trace),
            "/dev/full" );
          ( "pipetrace onto a full device",
            "simulate -k gzip -s 200 --pipetrace /dev/full",
            "/dev/full" ) ];
      check int "truncated run writes the resume checkpoint" 0
        (run_cli
           (Printf.sprintf "simulate -k gzip -s 512 --max-cycles 2000 --checkpoint %s"
              (Filename.quote checkpoint)));
      List.iter
        (fun (label, args, metrics) ->
          check int (Printf.sprintf "%s (`resim %s`)" label args) 0
            (run_cli args);
          let document = In_channel.with_open_text metrics In_channel.input_all in
          List.iter
            (fun needle ->
              check bool (Printf.sprintf "%s: contains %s" label needle) true
                (contains document needle))
            reference_identity;
          names_the_engine label metrics)
        metrics_cases;
      check int "profile --json exits 0" 0
        (run_cli
           (Printf.sprintf "profile -k gzip -s 256 --json %s"
              (Filename.quote profile_json)));
      names_the_engine "profile --json" profile_json;
      (* Every sweep runs its jobs in fault domains under the budget
         flags: a cycle budget truncates each job, which is not a
         failure. *)
      check int "budgeted sweep exits 0" 0
        (run_cli
           (Printf.sprintf "sweep --quick -j 2 --max-cycles 1000 --metrics %s"
              (Filename.quote sweep_metrics)));
      (match
         Json.parse (In_channel.with_open_text sweep_metrics In_channel.input_all)
       with
      | Error message -> Alcotest.failf "sweep metrics: %s" message
      | Ok document ->
          let jobs =
            match Json.member "jobs" document with
            | Some (Json.List jobs) -> jobs
            | _ -> []
          in
          check bool "sweep metrics list jobs" true (jobs <> []);
          List.iter
            (fun job ->
              check (Alcotest.option Alcotest.string) "job outcome"
                (Some "truncated")
                (Option.bind (Json.member "outcome" job) Json.string_value))
            jobs);
      check bool "several shards" true (List.length shards > 1);
      let code, output, _ =
        cli_output (Printf.sprintf "profile -t %s" (Filename.quote (List.hd shards)))
      in
      check int "profile of a shard exits 0" 0 code;
      let committed =
        Array.fold_left
          (fun n (r : Resim_trace.Record.t) -> if r.wrong_path then n else n + 1)
          0 sharded
      in
      check bool "profile of a shard runs the whole set" true
        (contains output (Printf.sprintf "%d instructions committed" committed));
      (* profile -t reads what simulate -t reads: a bare stem, stdin,
         and a missing path as a typed usage error *)
      let code, output, _ =
        cli_output (Printf.sprintf "profile -t %s" (Filename.quote shard_stem))
      in
      check int "profile of a shard stem exits 0" 0 code;
      check bool "profile of a shard stem runs the whole set" true
        (contains output (Printf.sprintf "%d instructions committed" committed));
      check int "profile from stdin exits 0" 0
        (run_cli (Printf.sprintf "profile -t - < %s" (Filename.quote good_trace)));
      let code, _, errors = cli_output "profile -t /nonexistent/x.rtr" in
      check int "profile of a missing file exits 2" 2 code;
      check bool "profile of a missing file is RSM-T009" true
        (contains errors "/nonexistent/x.rtr: [RSM-T009]"))

(* The sampled --metrics document: its sample section carries the spec,
   enough intervals for a confidence interval, one IPC per interval, and
   a CI that covers the full run's IPC. The summary line is printed and
   a fixed seed reproduces it; a sampled sweep samples every job. *)
let test_cli_sampled_metrics () =
  let sampled = Filename.temp_file "resim_test" ".json" in
  let full = Filename.temp_file "resim_test" ".json" in
  let sweep = Filename.temp_file "resim_test" ".json" in
  let document path =
    match Json.parse (In_channel.with_open_text path In_channel.input_all) with
    | Ok document -> document
    | Error message -> Alcotest.failf "%s: invalid JSON (%s)" path message
  in
  let path keys document =
    List.fold_left
      (fun v key -> Option.bind v (Json.member key))
      (Some document) keys
  in
  let number keys document =
    match Option.bind (path keys document) Json.number_value with
    | Some value -> value
    | None -> Alcotest.failf "no number at %s" (String.concat "." keys)
  in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ sampled; full; sweep ])
    (fun () ->
      let summary args =
        let code, output, _ = cli_output args in
        check int (Printf.sprintf "`resim %s` exits 0" args) 0 code;
        match
          List.find_opt
            (String.starts_with ~prefix:"sampled (")
            (String.split_on_char '\n' output)
        with
        | Some line -> line
        | None -> Alcotest.failf "`resim %s`: no sampled summary line" args
      in
      let first =
        summary
          (Printf.sprintf
             "simulate -k gzip -s 4000 --sample 200:1800:7 --metrics %s"
             (Filename.quote sampled))
      in
      check bool "the summary line names the spec" true
        (String.starts_with ~prefix:"sampled (200:1800:7):" first);
      check str "a fixed seed reproduces the summary line" first
        (summary "simulate -k gzip -s 4000 --sample 200:1800:7");
      check int "full run exits 0" 0
        (run_cli
           (Printf.sprintf "simulate -k gzip -s 4000 --metrics %s"
              (Filename.quote full)));
      let sampled = document sampled in
      let sample keys = number ("sample" :: keys) sampled in
      check (Alcotest.list (Alcotest.float 0.)) "spec" [ 200.; 1800.; 7. ]
        (List.map
           (fun k -> sample [ "spec"; k ])
           [ "detail"; "warmup"; "seed" ]);
      let intervals = sample [ "intervals" ] in
      check bool "at least 2 intervals" true (intervals >= 2.);
      let mean = sample [ "mean_ipc" ] in
      check bool "sampled IPC is positive" true (mean > 0.);
      let ci95 = sample [ "ci95" ] in
      check bool "ci95 is not negative" true (ci95 >= 0.);
      (match path [ "sample"; "interval_ipc" ] sampled with
      | Some (Json.List ipcs) ->
          check int "one IPC per interval" (int_of_float intervals)
            (List.length ipcs)
      | _ -> Alcotest.fail "no interval_ipc list");
      let full_ipc = number [ "derived"; "ipc" ] (document full) in
      check bool
        (Printf.sprintf "full IPC %.4f inside [%.4f, %.4f]" full_ipc
           (mean -. ci95) (mean +. ci95))
        true
        (mean -. ci95 <= full_ipc && full_ipc <= mean +. ci95);
      let code, output, _ =
        cli_output
          (Printf.sprintf "sweep --quick -j 2 --sample 200:1800:7 --metrics %s"
             (Filename.quote sweep))
      in
      check int "sampled sweep exits 0" 0 code;
      (* The footer's sum is engine time, which leaves trace generation
         out, so no ratio of it to the sweep's wall clock is printed. *)
      check bool "the wall-clock line is the wall clock alone" true
        (List.exists
           (fun line ->
             String.starts_with ~prefix:"wall clock " line
             && String.ends_with ~suffix:" s at -j 2" line)
           (String.split_on_char '\n' output));
      check bool "the footer sums engine time over jobs" true
        (contains output " job(s); engine time summed over jobs ");
      check bool "no serial-equivalent figure" false
        (contains output "serial-equivalent");
      match Json.member "jobs" (document sweep) with
      | Some (Json.List (_ :: _ as jobs)) ->
          List.iter
            (fun job ->
              check bool "every sweep job has a sample member" true
                (Json.member "sample" job <> None))
            jobs
      | _ -> Alcotest.fail "sweep metrics list no jobs")

(* A resumed run is a fresh run that starts from a checkpoint: it
   honours the budget flags, the checkpoints it writes chain back to
   the unbounded run's statistics, and a fault after the checkpoint
   exits as it would in any run. *)
let test_cli_resume_budgets () =
  let records =
    (Generator.run (Workload.program_of (Workload.find "gzip") ~scale:512 ()))
      .records
  in
  let trace = write_tmp ".rtr" (Resim_trace.Codec.encode records) in
  (* A foreign trace whose line 3001 is malformed, far past the cycle
     300 checkpoint. *)
  let bad_text =
    write_tmp ".trc"
      (String.concat ""
         (List.init 4000 (fun i ->
              if i = 3000 then Printf.sprintf "%x 9 1 2 3\n" (0x1000 + (4 * i))
              else
                Printf.sprintf "%x 0 %d %d %d\n" (0x1000 + (4 * i))
                  (1 + (i mod 7)) (1 + ((i + 3) mod 7)) (1 + ((i + 5) mod 7)))))
  in
  let tmp suffix = Filename.temp_file "resim_test" suffix in
  let first = tmp ".rscp" and chained = tmp ".rscp" and timed = tmp ".rscp"
  and text_checkpoint = tmp ".rscp" in
  let full_metrics = tmp ".json" and chained_metrics = tmp ".json"
  and timed_metrics = tmp ".json" in
  let q = Filename.quote in
  let read path = In_channel.with_open_bin path In_channel.input_all in
  (* Each checkpoint a resumed run writes must be its own. *)
  List.iter Sys.remove [ chained; timed ];
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun path -> if Sys.file_exists path then Sys.remove path)
        [ trace; bad_text; first; chained; timed; text_checkpoint;
          full_metrics; chained_metrics; timed_metrics ])
    (fun () ->
      check int "unbounded run" 0
        (run_cli
           (Printf.sprintf "simulate -t %s --metrics %s" (q trace)
              (q full_metrics)));
      check int "first leg truncates" 0
        (run_cli
           (Printf.sprintf "simulate -t %s --max-cycles 500 --checkpoint %s"
              (q trace) (q first)));
      let args =
        Printf.sprintf
          "simulate -t %s --resume %s --max-cycles 1000 --checkpoint %s"
          (q trace) (q first) (q chained)
      in
      let code, output, _ = cli_output args in
      check int (Printf.sprintf "`resim %s`" args) 0 code;
      check bool "the resumed leg stops at --max-cycles" true
        (contains output "run truncated by --max-cycles");
      check bool "the resumed leg writes its checkpoint" true
        (Sys.file_exists chained
        && contains (read chained) "cycle 1000\n");
      check int "the chained resume completes" 0
        (run_cli
           (Printf.sprintf "simulate -t %s --resume %s --metrics %s" (q trace)
              (q chained) (q chained_metrics)));
      check Alcotest.string "chained resume --metrics = unbounded --metrics"
        (read full_metrics) (read chained_metrics);
      (* The deadline bounds the whole command, replay included. *)
      let args =
        Printf.sprintf
          "simulate -t %s --resume %s --timeout 0.000001 --checkpoint %s"
          (q trace) (q first) (q timed)
      in
      let code, output, _ = cli_output args in
      check int (Printf.sprintf "`resim %s`" args) 0 code;
      check bool "the resumed run stops at --timeout" true
        (contains output "run truncated by --timeout");
      check bool "the timed-out resume writes its checkpoint" true
        (Sys.file_exists timed);
      check int "the timed-out checkpoint resumes" 0
        (run_cli
           (Printf.sprintf "simulate -t %s --resume %s --metrics %s" (q trace)
              (q timed) (q timed_metrics)));
      check Alcotest.string "timed-out chain --metrics = unbounded --metrics"
        (read full_metrics) (read timed_metrics);
      (* A malformed foreign line met after the checkpoint. *)
      check int "text checkpoint" 0
        (run_cli
           (Printf.sprintf
              "simulate -t %s --format text --max-cycles 300 --checkpoint %s"
              (q bad_text) (q text_checkpoint)));
      let code, _, errors =
        cli_output
          (Printf.sprintf "simulate -t %s --format text --resume %s"
             (q bad_text) (q text_checkpoint))
      in
      check int "a malformed line after the checkpoint exits 1" 1 code;
      check bool "stderr is the adapter's file:line:col line alone" true
        (String.starts_with ~prefix:(bad_text ^ ":3001:") errors
        && contains errors "[RSM-A003]"
        && List.length (String.split_on_char '\n' (String.trim errors)) = 1))

let suite =
  [ ("sample:spec",
     [ Alcotest.test_case "valid specs parse" `Quick test_spec_parse_ok;
       Alcotest.test_case "specs round-trip" `Quick test_spec_round_trip;
       Alcotest.test_case "errors name the field" `Quick
         test_spec_parse_errors ]);
    ("sample:engine",
     [ Alcotest.test_case "functional warm-up advances state" `Quick
         test_functional_warmup_advances;
       Alcotest.test_case "commit target stops and resumes" `Quick
         test_commit_target ]);
    ("sample:estimate",
     [ Alcotest.test_case "deterministic for a fixed seed" `Quick
         test_determinism;
       Alcotest.test_case "report accounting is consistent" `Quick
         test_report_accounting;
       Alcotest.test_case "CI covers full IPC across the grid" `Slow
         test_differential_grid ]);
    ("sample:budgets",
     [ Alcotest.test_case "cycle budget truncates with a checkpoint" `Quick
         test_sample_cycle_budget;
       Alcotest.test_case "deadline truncates" `Quick test_sample_deadline;
       Alcotest.test_case "sweep jobs carry sampled reports" `Quick
         test_sweep_sampled_job;
       Alcotest.test_case "pulled sweep jobs sample like arrays" `Quick
         test_sweep_sampled_stream_job ]);
    ("sample:checkpoint",
     [ Alcotest.test_case "every malformation class has its code" `Quick
         test_checkpoint_malformations;
       Alcotest.test_case "IO failure is RSM-K000" `Quick
         test_checkpoint_load_io_error;
       Alcotest.test_case "error rendering" `Quick
         test_checkpoint_error_to_string ]);
    ("sample:sweep-timing",
     [ Alcotest.test_case "host_mips window excludes generation" `Quick
         test_sweep_times_simulate_only;
       Alcotest.test_case "sampled host_mips counts the warm-up" `Quick
         test_sweep_sampled_host_mips ]);
    ("sample:json",
     [ Alcotest.test_case "every emitter parses" `Quick test_emitters_parse;
       QCheck_alcotest.to_alcotest property_escape_round_trips;
       QCheck_alcotest.to_alcotest property_sample_spec_json;
       Alcotest.test_case "sample report bytes are pinned" `Quick
         test_report_bytes;
       Alcotest.test_case "printer layouts and numbers" `Quick test_printer;
       Alcotest.test_case "parser strictness" `Quick test_parser_strictness;
       Alcotest.test_case "string errors after a long run" `Quick
         test_string_errors;
       QCheck_alcotest.to_alcotest property_print_parse ]);
    ("sample:cli",
     [ Alcotest.test_case "exit-code table" `Slow test_cli_exit_codes;
       Alcotest.test_case "sampled metrics cover the full run" `Slow
         test_cli_sampled_metrics;
       Alcotest.test_case "resumed runs honour the budgets" `Slow
         test_cli_resume_budgets ]) ]
