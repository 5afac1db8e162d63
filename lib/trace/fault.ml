type t = { code : string; offset : int; context : string }

exception Trace_fault of t

let make ~code ~offset ~context = { code; offset; context }

let fail ~code ~offset context = raise (Trace_fault (make ~code ~offset ~context))

let to_string t =
  Printf.sprintf "trace fault [%s] at record %d: %s" t.code t.offset t.context
