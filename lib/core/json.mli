(** Shared JSON string handling for every hand-rolled emitter.

    The repository deliberately carries no JSON dependency; each layer
    builds its documents with [Buffer] and [Printf]. What they must
    share is the escaping of free-form strings — kernel names, job
    labels, fault reasons, profiler section names — so that a quote or
    backslash in any of them can never produce an invalid document.
    [escape] is that single escape routine; [validate] is a strict
    RFC-8259 parser used by the test suite's "every emitted document
    parses" property and by smoke tooling. *)

val escape : string -> string
(** Escape a string for inclusion between double quotes in a JSON
    document: ["\""], ["\\"] and all control characters below 0x20
    (["\n"]/["\r"]/["\t"] as their short forms, the rest as [\u00xx]).
    Everything else passes through byte-for-byte. *)

val add_string : Buffer.t -> string -> unit
(** Append [s] to the buffer as a quoted, escaped JSON string. *)

val quote : string -> string
(** [quote s] is ["\"" ^ escape s ^ "\""]. *)

val append_members : string -> (string * string) list -> string
(** [append_members document members] adds [members], each a key and an
    already-encoded JSON value, at the end of [document]: an object such
    as {!Stats.to_json} emits, trailing whitespace allowed. Each member
    goes on its own line as [,\n  "key": value] and the object closes
    with ["\n}\n"]; the line before the first appended member keeps its
    newline, so each appended group starts with a line holding only
    [,]. Every [--metrics] document's engine identity and ["sample"]
    report, and resimd's sampled metrics, are appended this way. Raises
    [Invalid_argument] if [document] does not end in [}]. *)

(** Parsed JSON document. Object members keep their source order;
    duplicate keys are preserved ([member] returns the first). *)
type value =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | List of value list
  | Obj of (string * value) list

val parse : string -> (value, string) result
(** Strict whole-document RFC-8259 parse: objects, arrays, strings with
    escapes ([\uXXXX] decoded to UTF-8), numbers (floats and
    exponents), [true], [false], [null]. [Error] carries a byte offset
    and reason. The wire protocol ({!Resim_serve.Protocol}) reads every
    request and event through this. *)

val validate : string -> (unit, string) result
(** [parse] with the tree discarded. Used to assert that every emitter
    in the tree produces well-formed documents. *)

val member : string -> value -> value option
(** First member with that key of an [Obj]; [None] otherwise. *)

val string_value : value -> string option
val number_value : value -> float option
val bool_value : value -> bool option

val int_value : value -> int option
(** [Some] only for numbers that are exact integers within 10{^15}. *)
