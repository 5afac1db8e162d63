(** Trace generation from functional simulation — the `sim-bpred` analog.

    Runs the functional interpreter alongside a branch predictor. After
    every conditional branch whose direction the predictor missed, a
    *wrong-path block* of tagged records is appended: the generator
    checkpoints the machine, executes down the wrong path for up to
    [wrong_path_limit] instructions, records them with the Tag Bit set,
    and rolls the machine back — exactly the effect of the paper's
    modified functional simulator. The paper's conservative block size is
    Reorder Buffer entries + IFQ entries.

    Target-only mispredictions (BTB miss / RAS underflow on a
    correctly-predicted direction) are *misfetches*; the paper redirects
    them to the next sequential PC with a fixed penalty, which the timing
    engine models as a front-end stall, so they need no trace records.

    The trace-consuming engine takes its squash events from the trace
    structure itself (a tagged block follows every mispredicted branch),
    which is what keeps a trace-driven simulator aligned with its input by
    construction. *)

type config = {
  predictor : Resim_bpred.Predictor.config;
  wrong_path_limit : int;  (** max tagged records per mispredicted branch *)
  max_instructions : int;  (** correct-path instruction budget *)
}

val default_config : config
(** Paper predictor, wrong-path limit 16 + 4 (ROB + IFQ of the reference
    processor), 1 M instruction budget. *)

(** {1 Stepping}

    The one generation loop: {!run} drains it into an array and
    {!Stream} into a queue, so both produce the same records in the
    same order. *)

type t

val create :
  ?config:config -> emit:(Resim_trace.Record.t -> unit) ->
  Resim_isa.Program.t -> t
(** A generator at the program's entry point; it hands every record to
    [emit], in trace order. *)

val step : t -> bool
(** Execute the next correct-path instruction and emit its record, then,
    when the predictor missed its direction, the tagged block down the
    predicted path. [false], with nothing emitted, once the program has
    halted or the instruction budget is spent. *)

val correct_path : t -> int
val wrong_path : t -> int
val mispredicted_branches : t -> int

(** {1 Whole traces} *)

type result = {
  records : Resim_trace.Record.t array;
  correct_path : int;       (** untagged records *)
  wrong_path : int;         (** tagged records *)
  mispredicted_branches : int;
  executed_to_completion : bool;
      (** the program halted within the budget *)
}

val run : ?config:config -> Resim_isa.Program.t -> result

val records : ?config:config -> Resim_isa.Program.t -> Resim_trace.Record.t array
(** Convenience projection of {!run}. *)
