(** Well-formedness linter for encoded traces (codes RSM-T001 …
    RSM-T008; catalog in DESIGN.md §9).

    One streaming pass over the bit-packed stream — records are decoded
    one at a time and never materialised as an array, and no timing is
    run. Checked invariants, from §III's trace format:

    - the header and every record decode (magic, version, format,
      count, field codes, payload length);
    - the tag bit delimits wrong-path blocks that start only right
      after an untagged branch record — the branch the generator's
      predictor missed;
    - wrong-path runs are bounded ([max_wrong_path_run], default 4096);
    - payloads are internally consistent: non-negative PCs, targets and
      addresses, register fields within the ISA, unconditional branches
      are taken. *)

type report = {
  diagnostics : Diagnostic.t list;  (** errors first *)
  records_checked : int;
  wrong_path_records : int;
  wrong_path_blocks : int;
  format : Resim_trace.Codec.format option;
      (** [None] when the header did not decode *)
}

val lint_records :
  ?max_wrong_path_run:int -> Resim_trace.Record.t array -> report
(** Structural rules only, on already-decoded records — the path used
    for in-memory traces and for corruption tests. *)

val lint_string : ?max_wrong_path_run:int -> string -> report
(** Full streaming lint of an encoded stream, header included. Never
    raises: decode failures become diagnostics. *)

val lint_file : ?max_wrong_path_run:int -> ?chunk:int -> string -> report
(** Streaming lint through the chunked cursor: O([chunk]) memory
    regardless of file size. Never raises — an unreadable file is an
    RSM-T009 diagnostic. *)

val lint_adapter : ?max_wrong_path_run:int -> Resim_trace.Adapter.t -> report
(** Lint a foreign-format trace through its adapter: adapted records
    run the same tag-bit/payload rules; a malformed line surfaces as
    its RSM-A code with a [file:line:col] subject. *)

val clean : report -> bool
(** No diagnostics at all (not even warnings). *)
