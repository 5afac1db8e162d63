(* resim-dsafe: the cross-module domain-safety gate of resim-check.

   Drives Resim_check.Dsafe over the files named on the command line —
   name a whole tree (every lib/*/*.ml) so cross-module captures
   resolve; the test group dsafe analyzes lib/ the same way on every
   `dune runtest`. Findings carry the stable codes RSM-D001..D008
   (catalog in DESIGN.md §15).

   Usage: resim_dsafe [--inventory] [--max-annotations N] file.ml ...

   Exit codes: 0 clean, 1 findings (or annotation budget exceeded),
   2 usage/parse failure. *)

module Dsafe = Resim_check.Dsafe
module Diagnostic = Resim_check.Diagnostic

let usage = "usage: resim_dsafe [--inventory] [--max-annotations N] file.ml ..."

let () =
  let files = ref [] in
  let inventory = ref false in
  let max_annotations = ref None in
  let bad_usage message =
    prerr_endline message;
    prerr_endline usage;
    exit 2
  in
  let rec parse_args = function
    | [] -> ()
    | "--inventory" :: rest ->
        inventory := true;
        parse_args rest
    | "--max-annotations" :: value :: rest -> (
        match int_of_string_opt value with
        | Some n when n >= 0 ->
            max_annotations := Some n;
            parse_args rest
        | _ -> bad_usage "--max-annotations expects a non-negative integer")
    | "--max-annotations" :: [] ->
        bad_usage "--max-annotations expects a value"
    | flag :: _ when String.length flag > 1 && flag.[0] = '-' ->
        bad_usage (Printf.sprintf "unknown flag %s" flag)
    | file :: rest ->
        files := file :: !files;
        parse_args rest
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  let files = List.rev !files in
  if files = [] then bad_usage "no input files";
  match Dsafe.analyze_files files with
  | Error message ->
      Printf.eprintf "resim-dsafe: %s\n" message;
      exit 2
  | Ok report ->
      if !inventory then
        Format.printf "%a" Dsafe.pp_inventories report;
      List.iter
        (fun (d : Diagnostic.t) ->
          Printf.printf "%s: error[%s] %s\n" d.subject d.code d.message;
          match d.hint with
          | Some hint -> Printf.printf "    fix: %s\n" hint
          | None -> ())
        report.diagnostics;
      let annotations = report.annotations in
      let over_budget =
        match !max_annotations with
        | Some budget when annotations > budget ->
            Printf.printf
              "resim-dsafe: %d `resim-dsafe:` annotation(s) exceed the \
               budget of %d — new allows must be justified in DESIGN.md \
               §15 and the budget raised deliberately\n"
              annotations budget;
            true
        | _ -> false
      in
      (match report.diagnostics with
      | [] ->
          if not over_budget then
            Printf.printf
              "resim-dsafe: clean (%d module(s), %d annotation(s))\n"
              (List.length report.inventories)
              annotations
      | findings ->
          Printf.printf "resim-dsafe: %d finding(s) in %d module(s)\n"
            (List.length findings)
            (List.length report.inventories));
      if report.diagnostics <> [] || over_budget then exit 1
