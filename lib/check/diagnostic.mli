(** Structured diagnostics shared by the three static-analysis layers
    (configuration validator, trace linter, source lint).

    Every finding carries a stable code (["RSM-C013"], ["RSM-T005"], …)
    so tools and tests can match on the rule rather than on message
    text, a severity, the subject it is about (a configuration field, a
    record offset, a source location) and an optional fix hint. The
    catalog of codes lives in DESIGN.md §9. *)

type severity = Error | Warning

type t = {
  code : string;       (** stable rule identifier, e.g. ["RSM-C013"] *)
  severity : severity;
  subject : string;    (** what the finding is about: field, offset, … *)
  message : string;
  hint : string option; (** how to fix it, when there is an obvious fix *)
}

val error : code:string -> subject:string -> ?hint:string -> string -> t
val warning : code:string -> subject:string -> ?hint:string -> string -> t

val errors : t list -> t list
val warnings : t list -> t list
val has_errors : t list -> bool

val pp_list : Format.formatter -> t list -> unit

val summary : t list -> string
(** ["2 error(s), 1 warning(s)"] — or ["clean"] for the empty list. *)
