(** The one JSON builder, printer and parser of the tree.

    The repository deliberately carries no JSON dependency. Every
    metrics document ({!Stats.to_json}, the sample report, the sweep
    report, the profile) and every resimd wire message is a {!value}
    printed by {!to_string}, so separators, escaping and the
    non-finite-float rule live here once: a quote or backslash in a
    free-form string — kernel names, job labels, fault reasons,
    profiler section names — can never produce an invalid document,
    and neither can a NaN or an infinity. {!parse} is a strict
    RFC-8259 parser: the wire protocol reads every message through it,
    and so does the test suite's "every emitted document parses"
    property. *)

val quote : string -> string
(** [s] as a JSON string literal: double-quoted, with quotes,
    backslashes and control characters escaped. *)

(** A JSON document. Object members keep their order; duplicate keys
    are preserved ([member] returns the first). *)
type value =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | List of value list
  | Obj of (string * value) list
  | Raw of string
      (** Output only: text that is already JSON, printed verbatim — a
          number at its emitter's precision ({!int}, {!fixed}) or a
          whole document spliced in, such as {!Stats.to_json} inside
          the sweep report. {!parse} never returns it. *)

val int : int -> value
val int64 : int64 -> value
(** The integer in decimal ([%d], [%Ld]). *)

val fixed : int -> float -> value
(** [fixed digits f] prints [f] with [digits] decimals ([%.*f]), or
    [null] when [f] is NaN or infinite. *)

type layout =
  | Compact  (** no whitespace: [{"k":1,"l":[2,3]}] *)
  | Lines
      (** an object's members one per line, indented two spaces, and
          a trailing newline; nested values stay inline with [": "] and
          [", "]. The layout of {!Stats.to_json}. *)

val to_string : ?layout:layout -> value -> string
(** Print a value ([Compact] by default). Strings are escaped as
    {!quote} escapes them; a [Number] prints as an integer when it is one (below
    10{^15}), otherwise in the shortest [%g] form that reads back the
    same float, and as [null] when NaN or infinite. *)

val append_members : string -> (string * value) list -> string
(** [append_members document members] adds [members] at the end of
    [document]: an object as {!to_string} [~layout:Lines] prints it,
    whitespace around it dropped. Each member goes on its own line as
    [,\n  "key": value], its value [Compact], and the object closes
    with ["\n}\n"]; the line before the first appended member keeps
    its newline, so each appended group starts with a line holding
    only [,]. Every [--metrics] document's engine identity and
    ["sample"] report, and resimd's sampled metrics, are appended this
    way. Raises [Invalid_argument] if [document] does not end in [}]. *)

val parse : string -> (value, string) result
(** Strict whole-document RFC-8259 parse: objects, arrays, strings with
    escapes ([\uXXXX] decoded to UTF-8, a surrogate pair to one 4-byte
    sequence), numbers (floats and exponents, no leading zeros),
    [true], [false], [null]. An unpaired surrogate, a leading zero or
    any other departure from the grammar is an [Error] carrying the
    byte offset and reason. *)

val member : string -> value -> value option
(** First member with that key of an [Obj]; [None] otherwise. *)

val string_value : value -> string option
val number_value : value -> float option
val bool_value : value -> bool option

val int_value : value -> int option
(** [Some] only for numbers that are exact integers within 10{^15}. *)
