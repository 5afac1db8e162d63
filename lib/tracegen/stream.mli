(** Incremental trace generation.

    The pull-based counterpart of {!Generator}: records are produced one
    at a time on demand, so a consumer (the timing engine) can run
    concurrently with functional simulation instead of materialising the
    whole trace first — the paper's future-work idea of producing “the
    trace on the fly directly from a functional simulator” (§VI), as in
    FAST. It drains the same generation loop as {!Generator.run}
    ({!Generator.step}) into an internal queue, wrong-path blocks
    included, so it yields {!Generator.run}'s records in the same
    order. *)

type t

val create : ?config:Generator.config -> Resim_isa.Program.t -> t

val pull : t -> Resim_trace.Record.t option
(** Next record, or [None] once the program has halted (or the
    instruction budget is exhausted). *)

(** {1 Progress counters} (valid at any point during streaming) *)

val correct_path : t -> int
val wrong_path : t -> int
val mispredicted_branches : t -> int
