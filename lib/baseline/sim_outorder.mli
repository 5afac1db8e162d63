(** Execution-driven baseline — the `sim-outorder` analog.

    An execution-driven timing simulator fuses functional execution with
    the timing model in a single run: every simulation repeats the
    functional work (interpretation, speculative wrong-path execution and
    rollback, branch prediction) alongside the cycle accounting. ReSim's
    trace-driven design factors that work out into one offline trace
    generation, amortised across every timing run of a design-space
    sweep.

    This module is that fused baseline: one call interprets the program,
    models mis-speculation by actually executing down wrong paths, and
    runs the full ReSim timing model on the fly. Its *simulated* results
    agree with trace-driven ReSim on the same program and configuration
    (asserted by integration tests); what differs is the *host* cost,
    measured by the Bechamel benches:

    - [run] — the baseline: functional + timing, every time;
    - trace-driven ReSim — {!Resim_core.Engine.run} on a pre-built trace.

    This is also the stand-in for the paper's software-simulator
    comparison row (Table 2, sim-outorder at 0.30 MIPS on a 2.4 GHz
    Xeon): Table 2's software rows are published constants, and the bench
    reports our measured host MIPS for both modes next to them. *)

type result = {
  outcome : Resim_core.Resim.outcome;
  functional_instructions : int;
      (** instructions interpreted, wrong paths included *)
}

val run : Resim_isa.Program.t -> result
(** Execute and time [program] in one fused pass, under
    {!Resim_core.Config.reference} and its
    {!Resim_core.Resim.generator_config}. *)

val functional_only : Resim_isa.Program.t -> int
(** The `sim-fast` analog: pure functional simulation, no timing.
    Returns instructions executed; used to price trace generation. *)
