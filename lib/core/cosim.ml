type result = {
  stats : Stats.t;
  correct_path : int;
  wrong_path : int;
  mispredicted_branches : int;
  peak_buffered_records : int;
}

let run ?(config = Config.reference) ?generator program =
  let generator =
    Option.value generator ~default:(Resim.generator_config config)
  in
  let stream = Resim_tracegen.Stream.create ~config:generator program in
  let source =
    Source.of_pull (fun () -> Resim_tracegen.Stream.pull stream)
  in
  let engine = Engine.create_from_source ~config source in
  let peak = ref 0 in
  while not (Engine.finished engine) do
    Engine.step engine;
    peak := max !peak (Source.buffered source)
  done;
  { stats = Engine.stats engine;
    correct_path = Resim_tracegen.Stream.correct_path stream;
    wrong_path = Resim_tracegen.Stream.wrong_path stream;
    mispredicted_branches =
      Resim_tracegen.Stream.mispredicted_branches stream;
    peak_buffered_records = !peak }
