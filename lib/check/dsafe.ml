type report = {
  diagnostics : Diagnostic.t list;
  annotations : int;
  inventories : Dsafe_inventory.t list;
}

let annotation_diagnostics (source : Dsafe_ast.source) =
  List.filter_map
    (fun (annot : Dsafe_ast.annot) ->
      match annot.form with
      | Dsafe_ast.Unknown raw ->
          Some
            (Diagnostic.error ~code:"RSM-D007"
               ~subject:
                 (Printf.sprintf "%s:%d" source.path annot.annot_line)
               ~hint:
                 "grammar: `resim-dsafe: domain-local`, `resim-dsafe: \
                  guarded-by <mutex>`, `resim-dsafe: lock-impl`"
               (Printf.sprintf "malformed resim-dsafe annotation `%s`" raw))
      | _ -> None)
    source.annots

(* Diagnostics carry "file:line" subjects; order the report by them so
   output is stable regardless of pass order. *)
let subject_key (d : Diagnostic.t) =
  match String.rindex_opt d.subject ':' with
  | None -> (d.subject, 0)
  | Some i -> (
      let file = String.sub d.subject 0 i in
      let rest =
        String.sub d.subject (i + 1) (String.length d.subject - i - 1)
      in
      match int_of_string_opt rest with
      | Some line -> (file, line)
      | None -> (d.subject, 0))

let analyze_sources sources =
  let summaries =
    List.map
      (fun source ->
        Dsafe_domain.summarize source (Dsafe_inventory.scan source))
      sources
  in
  let diagnostics =
    List.concat
      [ List.concat_map annotation_diagnostics sources;
        List.concat_map Dsafe_locks.check sources;
        List.concat_map (Dsafe_domain.check ~global:summaries) summaries ]
  in
  let diagnostics =
    List.stable_sort
      (fun a b -> compare (subject_key a) (subject_key b))
      diagnostics
  in
  let annotations =
    List.fold_left
      (fun count (source : Dsafe_ast.source) ->
        count + List.length source.annots)
      0 sources
  in
  { diagnostics;
    annotations;
    inventories = List.map Dsafe_domain.inventory summaries }

let analyze_files paths =
  let rec load acc = function
    | [] -> Ok (List.rev acc)
    | path :: rest -> (
        match Dsafe_ast.load path with
        | Ok source -> load (source :: acc) rest
        | Error message -> Error message)
  in
  match load [] paths with
  | Error message -> Error message
  | Ok sources -> Ok (analyze_sources sources)

let pp_inventories ppf report =
  List.iter
    (fun inv ->
      if inv.Dsafe_inventory.items <> [] then
        Format.fprintf ppf "%a@." Dsafe_inventory.pp inv)
    report.inventories
