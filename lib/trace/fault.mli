(** Structured runtime trace faults.

    The runtime counterpart of the static RSM-T diagnostic codes
    (resim-check layer 2): when a corrupt or protocol-violating trace
    reaches a consumer — the codec's streaming cursor, the timing
    engine — the failure surfaces as a {!Trace_fault} carrying the rule
    code, the record offset where it was detected, and a human-readable
    context line, never as an anonymous exception with no location. *)

type t = {
  code : string;     (** RSM-T diagnostic code, e.g. ["RSM-T005"] *)
  offset : int;      (** record index where the fault was detected *)
  context : string;  (** what the consumer was doing when it fired *)
}

exception Trace_fault of t

val make : code:string -> offset:int -> context:string -> t

val fail : code:string -> offset:int -> string -> 'a
(** [fail ~code ~offset context] raises {!Trace_fault}. *)

val to_string : t -> string
