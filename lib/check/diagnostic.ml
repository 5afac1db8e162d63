type severity = Error | Warning

type t = {
  code : string;
  severity : severity;
  subject : string;
  message : string;
  hint : string option;
}

let make severity ~code ~subject ?hint message =
  { code; severity; subject; message; hint }

let error ~code ~subject ?hint message =
  make Error ~code ~subject ?hint message

let warning ~code ~subject ?hint message =
  make Warning ~code ~subject ?hint message

let is_error t = match t.severity with Error -> true | Warning -> false
let errors list = List.filter is_error list
let warnings list = List.filter (fun t -> not (is_error t)) list
let has_errors list = List.exists is_error list

let severity_name = function Error -> "error" | Warning -> "warning"

(* One line: [error[RSM-C013] mem_read_ports: message (fix: hint)]. *)
let pp ppf t =
  Format.fprintf ppf "%s[%s] %s: %s" (severity_name t.severity) t.code
    t.subject t.message;
  match t.hint with
  | Some hint -> Format.fprintf ppf " (fix: %s)" hint
  | None -> ()

let pp_list ppf list =
  Format.pp_print_list ~pp_sep:Format.pp_print_newline pp ppf list

let summary list =
  if list = [] then "clean"
  else
    Printf.sprintf "%d error(s), %d warning(s)"
      (List.length (errors list))
      (List.length (warnings list))
