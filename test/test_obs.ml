(* Tests for the observability layer (DESIGN.md §11): the pipetrace
   JSONL stream and its bit-identity between the default engine and
   the reference phases, the schema validator (RSM-P codes), the waterfall
   renderer, the host profiler, and the guarantee that attaching no
   sink leaves the run's statistics untouched. *)

open Resim_core
module Obs = Resim_obs.Obs
module Prof = Resim_obs.Prof
module Check = Resim_check.Check
module Synthetic = Resim_tracegen.Synthetic

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let string = Alcotest.string

(* Run one engine with a buffer-backed JSONL sink; return the stream
   and the final stats. [reference] runs the reference phases
   ({!Engine.use_reference}) instead of the default engine. *)
let pipetrace ?(reference = false) ~config records =
  let engine = Engine.create ~config records in
  if reference then Engine.use_reference engine;
  let buffer = Buffer.create 4096 in
  let sinks = [ Obs.make_sink (Obs.add_jsonl_event buffer) ] in
  Obs.attach engine sinks;
  let stats = Engine.run engine in
  Obs.close sinks;
  (Buffer.contents buffer, stats)

(* ------------------------------------------------------------------- *)
(* Differential: the pipetrace stream, cycle stamps included, is part
   of the engine/reference equivalence contract, not just the
   end-of-run statistics.                                               *)

let streams_identical ~config records =
  String.equal
    (fst (pipetrace ~reference:true ~config records))
    (fst (pipetrace ~config records))

let assert_streams_identical ~name ~config records =
  check bool (name ^ ": pipetrace streams") true
    (streams_identical ~config records)

let test_kernel_streams_bit_identical () =
  List.iter
    (fun (name, records) ->
      assert_streams_identical ~name ~config:Config.reference records;
      assert_streams_identical ~name:(name ^ " (fast-comparable)")
        ~config:Config.fast_comparable records)
    (Lazy.force Test_event.kernel_records)

let random_streams_bit_identical =
  QCheck.Test.make
    ~name:"random streams bit-identical to the reference" ~count:60
    QCheck.(
      pair (int_bound 100_000)
        (pair
           (int_bound (Array.length Test_event.differential_configs - 1))
           (int_range 150 400)))
    (fun (seed, (config_index, instructions)) ->
      let profile =
        { (Synthetic.balanced ~name:"obs" ~instructions) with
          Synthetic.mispredict_rate = 0.15;
          dependency_density = 0.5 }
      in
      let records = Synthetic.generate ~seed profile in
      streams_identical
        ~config:Test_event.differential_configs.(config_index)
        records)

(* ------------------------------------------------------------------- *)
(* Schema: the real stream validates clean; corrupted lines hit their
   RSM-P codes.                                                         *)

let small_records =
  lazy
    (let gzip = Resim_workloads.Workload.find "gzip" in
     let program = Resim_workloads.Workload.program_of gzip ~scale:64 () in
     Resim_tracegen.Generator.records program)

let small_stream =
  lazy (fst (pipetrace ~config:Config.reference (Lazy.force small_records)))

let test_stream_validates_clean () =
  let report = Check.Obs.lint_string (Lazy.force small_stream) in
  check bool "clean" true (report.Check.Obs.diagnostics = []);
  check bool "checked every line" true (report.lines_checked > 100);
  (* Every emitted kind is one the schema knows, and the fundamental
     conservation holds: at least as many fetches as commits. *)
  let count kind =
    match List.assoc_opt kind report.events with Some n -> n | None -> 0
  in
  check bool "fetches >= commits" true (count "F" >= count "C");
  check bool "commits present" true (count "C" > 0)

let codes report =
  List.map
    (fun d -> d.Check.Diagnostic.code)
    report.Check.Obs.diagnostics

let test_schema_rejects_corruption () =
  let expect line code =
    let report = Check.Obs.lint_string line in
    check bool
      (Printf.sprintf "%S -> %s (got %s)" line code
         (String.concat "," (codes report)))
      true
      (List.mem code (codes report))
  in
  (* RSM-P001: not a flat JSON object. *)
  expect "not json" "RSM-P001";
  expect "{\"c\":1,\"e\":\"F\",\"pc\":2} trailing" "RSM-P001";
  (* RSM-P002: unknown or missing event kind. *)
  expect "{\"c\":1,\"e\":\"Z\"}" "RSM-P002";
  expect "{\"c\":1}" "RSM-P002";
  (* RSM-P003: required field missing, ill-typed, or a bad reason. *)
  expect "{\"c\":1,\"e\":\"D\",\"id\":3}" "RSM-P003";
  expect "{\"c\":1,\"e\":\"I\",\"id\":\"three\"}" "RSM-P003";
  expect "{\"c\":1,\"e\":\"S\",\"r\":\"coffee-break\"}" "RSM-P003";
  expect "{\"e\":\"FL\"}" "RSM-P003";
  (* RSM-P004: cycles decrease down the stream. *)
  let report =
    Check.Obs.lint_string
      "{\"c\":5,\"e\":\"F\",\"pc\":0}\n{\"c\":4,\"e\":\"FL\"}\n"
  in
  check bool "regressing cycle" true (List.mem "RSM-P004" (codes report));
  (* And the genuine article still passes the same validator. *)
  check bool "real stream unaffected" true
    ((Check.Obs.lint_string (Lazy.force small_stream)).diagnostics = [])

let test_stall_reasons_all_legal () =
  (* Synthesize one S line per taxonomy reason; all must validate. *)
  let buffer = Buffer.create 256 in
  List.iter
    (fun reason ->
      Buffer.add_string buffer
        (Printf.sprintf "{\"c\":1,\"e\":\"S\",\"r\":\"%s\"}\n"
           (Engine.stall_reason_name reason)))
    Engine.all_stall_reasons;
  let report = Check.Obs.lint_string (Buffer.contents buffer) in
  check bool "every taxonomy reason validates" true (report.Check.Obs.diagnostics = []);
  check int "nine reasons" 9 (List.length Engine.all_stall_reasons)

(* ------------------------------------------------------------------- *)
(* Waterfall renderer.                                                  *)

let test_waterfall_renders () =
  let path = Filename.temp_file "resim_waterfall" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let channel = open_out path in
      let engine =
        Engine.create ~config:Config.reference (Lazy.force small_records)
      in
      let sinks = [ Obs.waterfall ~window:8 channel ] in
      Obs.attach engine sinks;
      ignore (Engine.run engine);
      Obs.close sinks;
      close_out channel;
      let ic = open_in path in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let has_line prefix =
        List.exists
          (fun line ->
            String.length line >= String.length prefix
            && String.sub line 0 (String.length prefix) = prefix)
          (String.split_on_char '\n' text)
      in
      check bool "header row" true (has_line "id    pc");
      check bool "first instruction row" true (has_line "#0");
      check bool "window honoured: no ninth row" false (has_line "#8");
      check bool "legend" true (has_line "F fetch"))

(* The CLI face: [simulate --waterfall 8] prints the header, exactly
   eight instruction rows and the legend, in that order. *)
let test_cli_waterfall () =
  let out = Filename.temp_file "resim_waterfall" ".out" in
  Fun.protect
    ~finally:(fun () -> Sys.remove out)
    (fun () ->
      check int "simulate --waterfall 8 exits 0" 0
        (Sys.command
           (Printf.sprintf "%s simulate -k gzip -s 256 --waterfall 8 > %s"
              (Filename.quote Test_sample.cli) (Filename.quote out)));
      let lines =
        String.split_on_char '\n'
          (In_channel.with_open_text out In_channel.input_all)
      in
      let rec from_header = function
        | line :: rest when String.starts_with ~prefix:"id    pc      |" line ->
            rest
        | _ :: rest -> from_header rest
        | [] -> Alcotest.fail "no waterfall header"
      in
      let rec rows acc = function
        | line :: rest when String.starts_with ~prefix:"#" line ->
            rows (acc + 1) rest
        | rest -> (acc, rest)
      in
      let count, after = rows 0 (from_header lines) in
      check int "eight instruction rows" 8 count;
      check string "legend follows the rows"
        "F fetch  D dispatch  I issue  W writeback  C commit  x squashed"
        (match after with line :: _ -> line | [] -> ""))

(* The CLI's pipetrace and metrics files: one simulate writes commit
   events and the stall causes, a [.csv] path a header and one row of
   the same width, and [lint --pipetrace] passes the stream clean and
   flags a corrupted copy with its RSM-P codes. *)
let test_cli_pipetrace_and_metrics () =
  let temp suffix = Filename.temp_file "resim_obs" suffix in
  let stream = temp ".jsonl" and metrics = temp ".json" in
  let csv = temp ".csv" and corrupt = temp ".jsonl" in
  let read path = In_channel.with_open_bin path In_channel.input_all in
  let run label args =
    let code, output, _ = Test_sample.cli_output args in
    check int (Printf.sprintf "%s (`resim %s`)" label args) 0 code;
    output
  in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ stream; metrics; csv; corrupt ])
    (fun () ->
      ignore
        (run "pipetrace and metrics"
           (Printf.sprintf "simulate -k gzip -s 256 --pipetrace %s --metrics %s"
              (Filename.quote stream) (Filename.quote metrics)));
      check bool "the pipetrace has commit events" true
        (Test_sample.contains (read stream) {|"e":"C"|});
      check bool "the metrics have stall causes" true
        (Test_sample.contains (read metrics) {|"stall_causes"|});
      ignore
        (run "CSV metrics"
           (Printf.sprintf "simulate -k gzip -s 256 --metrics %s"
              (Filename.quote csv)));
      (match String.split_on_char '\n' (read csv) with
      | header :: row :: _ ->
          let columns line = List.length (String.split_on_char ',' line) in
          check int "header and row have the same columns" (columns header)
            (columns row);
          check bool "at least 20 columns" true (columns header >= 20)
      | _ -> Alcotest.fail "the CSV has no header and row");
      let output =
        run "lint of the clean stream"
          (Printf.sprintf "lint --pipetrace %s" (Filename.quote stream))
      in
      check bool "lint reports clean" true
        (Test_sample.contains output "clean");
      let first_lines =
        List.filteri
          (fun i _ -> i < 5)
          (String.split_on_char '\n' (read stream))
      in
      Out_channel.with_open_bin corrupt (fun channel ->
          List.iter
            (fun line -> output_string channel (line ^ "\n"))
            (first_lines @ [ {|{"c":1,"e":"Z"}|}; "not json at all" ]));
      let code, output, errors =
        Test_sample.cli_output
          (Printf.sprintf "lint --pipetrace %s" (Filename.quote corrupt))
      in
      check int "lint of the corrupted stream exits 1" 1 code;
      List.iter
        (fun code ->
          check bool ("the corrupted stream reports " ^ code) true
            (Test_sample.contains (output ^ errors) code))
        [ "RSM-P001"; "RSM-P002" ])

(* [profile] charges and names every engine phase. *)
let test_cli_profile_phases () =
  let code, output, _ = Test_sample.cli_output "profile -k gzip -s 256" in
  check int "profile exits 0" 0 code;
  check int "seven engine phases" 7 (List.length Engine.all_phases);
  List.iter
    (fun phase ->
      let name = "engine/" ^ Engine.phase_name phase in
      check bool (name ^ " in the section table") true
        (Test_sample.contains output name))
    Engine.all_phases

(* ------------------------------------------------------------------- *)
(* Profiler.                                                            *)

let test_profiler_sections () =
  let prof = Prof.create () in
  let engine =
    Engine.create ~config:Config.reference (Lazy.force small_records)
  in
  let closer = Prof.instrument_engine prof engine in
  ignore (Engine.run engine);
  closer ();
  let sections = Prof.sections prof in
  List.iter
    (fun phase ->
      let name = "engine/" ^ Engine.phase_name phase in
      match
        List.find_opt (fun s -> String.equal s.Prof.name name) sections
      with
      | Some section ->
          check bool (name ^ " charged") true (section.Prof.calls > 0)
      | None -> Alcotest.fail (name ^ " missing from the profile"))
    Engine.all_phases;
  (* Descending by seconds, and the JSON document mentions a section. *)
  let seconds = List.map (fun s -> s.Prof.seconds) sections in
  check bool "sorted descending" true
    (List.sort (fun a b -> compare b a) seconds = seconds);
  let json = Prof.to_json prof in
  check bool "json names engine/commit" true
    (let needle = "engine/commit" in
     let n = String.length json and m = String.length needle in
     let rec scan i =
       i + m <= n && (String.sub json i m = needle || scan (i + 1))
     in
     scan 0)

let test_time_charges_on_exception () =
  let prof = Prof.create () in
  (try Prof.time prof "explodes" (fun () -> failwith "boom")
   with Failure _ -> ());
  ignore (Prof.time prof "explodes" (fun () -> ()));
  match Prof.sections prof with
  | [ { Prof.name = "explodes"; calls = 2; _ } ] -> ()
  | _ -> Alcotest.fail "expected one section charged twice"

(* ------------------------------------------------------------------- *)
(* Zero-sink neutrality: attaching nothing must not perturb the run.    *)

let test_no_sink_no_observer () =
  let records = Lazy.force small_records in
  let bare = Engine.simulate ~config:Config.reference records in
  let engine = Engine.create ~config:Config.reference records in
  Obs.attach engine [];
  let attached = Engine.run engine in
  check string "stats identical with empty sink list"
    (Format.asprintf "%a" Stats.pp bare)
    (Format.asprintf "%a" Stats.pp attached)

let test_observed_run_stats_unchanged () =
  (* The pipetrace is pure observation: same counters with and without
     a sink attached, in the default engine and the reference phases. *)
  let records = Lazy.force small_records in
  let config = Config.reference in
  let bare = Engine.simulate ~config records in
  List.iter
    (fun (name, reference) ->
      let _, observed = pipetrace ~reference ~config records in
      check string
        (name ^ ": observation is pure")
        (Format.asprintf "%a" Stats.pp bare)
        (Format.asprintf "%a" Stats.pp observed))
    [ ("reference phases", true); ("engine", false) ]

let suite =
  [ ("obs:pipetrace",
     [ Alcotest.test_case "kernel streams bit-identical" `Slow
         test_kernel_streams_bit_identical;
       QCheck_alcotest.to_alcotest random_streams_bit_identical;
       Alcotest.test_case "observation is pure" `Quick
         test_observed_run_stats_unchanged;
       Alcotest.test_case "no sink, no observer" `Quick
         test_no_sink_no_observer ]);
    ("obs:schema",
     [ Alcotest.test_case "real stream validates clean" `Quick
         test_stream_validates_clean;
       Alcotest.test_case "corruption hits RSM-P codes" `Quick
         test_schema_rejects_corruption;
       Alcotest.test_case "stall taxonomy round-trips" `Quick
         test_stall_reasons_all_legal ]);
    ("obs:render",
     [ Alcotest.test_case "waterfall" `Quick test_waterfall_renders;
       Alcotest.test_case "simulate --waterfall 8" `Quick test_cli_waterfall;
       Alcotest.test_case "simulate --pipetrace --metrics, then lint" `Quick
         test_cli_pipetrace_and_metrics;
       Alcotest.test_case "profile names every engine phase" `Quick
         test_cli_profile_phases ]);
    ("obs:prof",
     [ Alcotest.test_case "engine phases charged" `Quick
         test_profiler_sections;
       Alcotest.test_case "time charges on exception" `Quick
         test_time_charges_on_exception ]) ]
