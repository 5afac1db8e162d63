(** Lightweight replay checkpoint for bounded runs.

    The engine is deterministic, so a run truncated by a cycle or
    wall-clock budget resumes exactly by replaying the same trace and
    configuration up to the recorded cycle. The snapshot carries enough
    to verify the replay as well as to restart it: after stepping back
    to [cycle], the engine's cursor and every statistics register must
    equal the recorded values — a mismatch means the checkpoint belongs
    to a different trace or configuration and the resume is refused
    ({!Resim.run}'s [resume]). *)

type t = {
  cycle : int64;   (** major cycles completed when the run stopped *)
  cursor : int;    (** trace records consumed *)
  counters : (string * int64) list;  (** {!Stats.to_assoc} snapshot *)
  engine : string option;
      (** engine-version/config-hash identity ({!Resim.engine_identity})
          stamped at save time; [None] on legacy handles *)
}

val make : cycle:int64 -> cursor:int -> counters:(string * int64) list -> t
(** An unstamped handle ([engine = None]); see {!with_engine}. *)

val with_engine : string -> t -> t
(** Stamp (or replace) the engine identity on a handle. *)

val to_string : t -> string
(** Stable line-oriented text form ([RSCP 1] header). *)

(** Structured parse failure, in the [Trace_fault] style: a stable
    RSM-K code per malformation class, the 1-based line it was found on
    (0 for whole-document conditions), and a human-readable reason.

    Codes: [RSM-K000] file unreadable, [RSM-K001] empty document,
    [RSM-K002] bad header, [RSM-K003] malformed line, [RSM-K004]
    unparseable value (values are strict unsigned decimal — no sign,
    hex or underscores), [RSM-K005] duplicate key or counter,
    [RSM-K006] missing required key, [RSM-K007] engine-identity
    mismatch ({!verify_engine}). *)
type error = { code : string; line : int; reason : string }

val error_to_string : error -> string

val verify_engine : expected:string -> t -> (unit, error) result
(** Refuse ([RSM-K007]) a handle stamped with a different engine
    identity than [expected] — a checkpoint taken on one engine
    build/configuration must not seed a verification replay on
    another. Unstamped handles pass; the replay verification is then
    the only guard. *)

val of_string : string -> (t, error) result
(** Strict parse: any malformation refuses the whole checkpoint (and
    with it the resume) rather than guessing — a checkpoint drives a
    verification replay, so a silently mis-read field would surface
    later as a baffling "wrong trace or configuration" refusal, or
    worse, verify against the wrong position. *)

val save : string -> t -> unit
(** Write to a file; raises [Sys_error] on IO failure. *)

val load : string -> (t, error) result
(** Read from a file; IO failures come back as [RSM-K000], parse
    failures with their RSM-K code. *)
