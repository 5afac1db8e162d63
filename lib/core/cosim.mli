(** On-the-fly co-simulation — functional simulator feeding the timing
    engine directly, the FAST-style mode the paper names as future work
    (§VI: “produce the trace on the fly directly from a functional
    simulator”).

    The incremental generator ({!Resim_tracegen.Stream}) and the engine
    are coupled through a pull {!Source}; records are produced exactly
    when the engine's fetch unit needs them and reclaimed once consumed,
    so memory stays bounded by the engine's lookahead instead of the
    trace length. Results are bit-identical to the offline pipeline
    (generate-then-simulate), which an integration test asserts. *)

type result = {
  stats : Stats.t;
  correct_path : int;           (** instructions functionally executed *)
  wrong_path : int;             (** tagged records produced *)
  mispredicted_branches : int;
  peak_buffered_records : int;  (** high-water mark of the pull window *)
}

val run :
  ?config:Config.t ->
  ?generator:Resim_tracegen.Generator.config ->
  Resim_isa.Program.t ->
  result
(** When [generator] is omitted it is {!Resim.generator_config}, the
    same generator {!Resim.simulate_program} uses. *)
