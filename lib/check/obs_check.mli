(** Schema validator for pipetrace JSONL streams (codes RSM-P001 …
    RSM-P004; catalog in DESIGN.md §9).

    Validates the format [Resim_obs.Obs] emits — one flat JSON object
    per line — without a JSON library: the accepted grammar is exactly
    the flat objects the emitter produces (integer, string and [true]
    values, no nesting). Checked invariants, from the format spec in
    DESIGN.md §11:

    - every line parses as a flat object with a non-negative integer
      ["c"] and a known event kind ["e"] (RSM-P001, RSM-P002);
    - each kind carries its required fields with the right types —
      [F] pc, [D] id + pc, [I/W/C/X] id, [S] a taxonomy reason — and
      nothing unknown (RSM-P003; unknown fields warn);
    - cycles never decrease down the stream (RSM-P004). *)

type report = {
  diagnostics : Diagnostic.t list;
  lines_checked : int;
  events : (string * int) list;
      (** per-kind event counts, in first-appearance order *)
}

val lint_string : string -> report
(** Validate a whole stream (lines split on ['\n']; a trailing newline
    does not count as an empty line). Never raises. *)

val lint_file : string -> report
(** [lint_string] over a file's contents. Raises [Sys_error] only when
    the file cannot be read. *)
