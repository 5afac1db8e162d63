(* Tests for the resim-dsafe domain-safety analyzer (DESIGN.md §15).

   Three parts:
   - directed fixtures under dsafe_fixtures/: each racy_dXXX.ml module
     is engineered to trip exactly its RSM-D code at a known subject,
     the cross-module pair checks owner attribution, and clean_guarded
     must produce no findings;
   - the gate itself: every module under lib/ must analyze clean, with
     the number of `resim-dsafe:` allow annotations at or under the
     checked-in budget (mirrored by --max-annotations in the root dune
     @dsafe rule);
   - the resim_dsafe binary's exit codes and output on the fixtures. *)

module Dsafe = Resim_check.Dsafe
module Diagnostic = Resim_check.Diagnostic

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

(* Must match --max-annotations in the root dune file's @dsafe rule.
   Raising it requires a justification in DESIGN.md §15. *)
let annotation_budget = 2

let analyze files =
  match Dsafe.analyze_files files with
  | Ok report -> report
  | Error message -> Alcotest.failf "dsafe analysis failed: %s" message

let fixture name = Filename.concat "dsafe_fixtures" name

let subjects_of code (report : Dsafe.report) =
  List.filter_map
    (fun (d : Diagnostic.t) ->
      if d.code = code then Some d.subject else None)
    report.diagnostics

(* One racy fixture per code: the expected diagnostic fires at the
   expected subject, and nothing OUTSIDE the targeted code fires — a
   fixture that trips extra codes is testing less than it claims. *)
let directed_cases =
  [ ("racy_d001.ml", "RSM-D001", 6);
    ("racy_d002.ml", "RSM-D002", 9);
    ("racy_d003.ml", "RSM-D003", 10);
    ("racy_d004.ml", "RSM-D004", 10);
    ("racy_d005.ml", "RSM-D005", 9);
    ("racy_d006.ml", "RSM-D006", 8);
    ("racy_d007.ml", "RSM-D007", 1);
    ("racy_d008.ml", "RSM-D008", 9) ]

let test_directed_fixtures () =
  List.iter
    (fun (file, code, line) ->
      let path = fixture file in
      let report = analyze [ path ] in
      let subject = Printf.sprintf "%s:%d" path line in
      check bool
        (Printf.sprintf "%s reports %s at %s" file code subject)
        true
        (List.mem subject (subjects_of code report));
      List.iter
        (fun (d : Diagnostic.t) ->
          check Alcotest.string
            (Printf.sprintf "%s fires only %s (got %s at %s)" file code
               d.code d.subject)
            code d.code)
        report.diagnostics)
    directed_cases

let test_d008_flags_both_brackets () =
  let path = fixture "racy_d008.ml" in
  let report = analyze [ path ] in
  check int "both lock and unlock flagged" 2
    (List.length (subjects_of "RSM-D008" report))

let test_cross_module_attribution () =
  (* The spawn lives in racy_xmod_spawn.ml; the finding must land on
     the owning binding in racy_xmod_state.ml. *)
  let state = fixture "racy_xmod_state.ml" in
  let spawn = fixture "racy_xmod_spawn.ml" in
  let report = analyze [ state; spawn ] in
  check bool "cross-module D001 attributed to the owner module" true
    (List.mem (state ^ ":6") (subjects_of "RSM-D001" report));
  check int "exactly one finding for the pair" 1
    (List.length report.diagnostics)

let test_clean_fixture () =
  let report = analyze [ fixture "clean_guarded.ml" ] in
  check int "clean_guarded has no findings" 0
    (List.length report.diagnostics);
  check int "its domain-local annotation is counted" 1
    (List.length report.annotations)

(* The gate: all of lib/, exactly as `dune build @dsafe` sees it. Tests
   run from _build/default/test, so lib/ sources sit at ../lib (the
   source_tree dep in test/dune copies them in). *)
let lib_sources () =
  let root = "../lib" in
  Sys.readdir root |> Array.to_list |> List.sort compare
  |> List.filter (fun entry ->
         Sys.is_directory (Filename.concat root entry))
  |> List.concat_map (fun subdir ->
         let dir = Filename.concat root subdir in
         Sys.readdir dir |> Array.to_list |> List.sort compare
         |> List.filter (fun f -> Filename.check_suffix f ".ml")
         |> List.map (Filename.concat dir))

let test_lib_is_dsafe_clean () =
  let sources = lib_sources () in
  check bool "found the lib/ tree" true (List.length sources > 50);
  let report = analyze sources in
  List.iter
    (fun (d : Diagnostic.t) ->
      Alcotest.failf "lib/ must be dsafe-clean, got %s at %s: %s" d.code
        d.subject d.message)
    report.diagnostics;
  let annotations = List.length report.annotations in
  check bool
    (Printf.sprintf
       "lib/ annotation count %d within budget %d (new allows must be \
        justified in DESIGN.md §15)"
       annotations annotation_budget)
    true
    (annotations <= annotation_budget)

(* The analyzer binary, as `dune build @dsafe` runs it: exit 1 on a
   racy module, every code the racy fixtures trip named on its output,
   exit 0 with the clean summary within the annotation budget and exit 1
   over it. It sits next to the CLI binary. *)
let dsafe_exe = Filename.concat (Filename.dirname Test_sample.cli) "resim_dsafe.exe"

let run_dsafe args =
  let out = Filename.temp_file "resim_dsafe" ".out" in
  let code =
    Sys.command
      (Printf.sprintf "%s %s > %s 2>&1" (Filename.quote dsafe_exe)
         (String.concat " " (List.map Filename.quote args))
         (Filename.quote out))
  in
  let output = In_channel.with_open_text out In_channel.input_all in
  Sys.remove out;
  (code, output)

let test_exe_exit_codes () =
  let code, _ = run_dsafe [ fixture "racy_d004.ml" ] in
  check int "racy_d004.ml fails the gate" 1 code;
  let codes = [ "D001"; "D002"; "D004"; "D005"; "D006"; "D007"; "D008" ] in
  let code, output =
    run_dsafe
      (List.map
         (fun code -> fixture ("racy_" ^ String.lowercase_ascii code ^ ".ml"))
         codes)
  in
  check int "the racy fixtures fail the gate" 1 code;
  List.iter
    (fun code ->
      check bool ("RSM-" ^ code ^ " reported") true
        (Test_sample.contains output ("error[RSM-" ^ code ^ "]")))
    codes;
  let clean = fixture "clean_guarded.ml" in
  let code, output = run_dsafe [ "--max-annotations"; "1"; clean ] in
  check int "clean_guarded.ml passes within a budget of 1" 0 code;
  check Alcotest.string "clean summary"
    "resim-dsafe: clean (1 module(s), 1 annotation(s))\n" output;
  let code, _ = run_dsafe [ "--max-annotations"; "0"; clean ] in
  check int "its one annotation fails a budget of 0" 1 code

let suite =
  [ ( "dsafe",
      [ Alcotest.test_case "directed racy fixtures" `Quick
          test_directed_fixtures;
        Alcotest.test_case "D008 flags both brackets" `Quick
          test_d008_flags_both_brackets;
        Alcotest.test_case "cross-module D001 attribution" `Quick
          test_cross_module_attribution;
        Alcotest.test_case "clean fixture analyzes clean" `Quick
          test_clean_fixture;
        Alcotest.test_case "lib/ is dsafe-clean within budget" `Quick
          test_lib_is_dsafe_clean;
        Alcotest.test_case "exe exit codes on the fixtures" `Quick
          test_exe_exit_codes ] ) ]
