type result = {
  stats : Stats.t;
  correct_path : int;
  wrong_path : int;
  peak_buffered_records : int;
}

let run program =
  let stream =
    Resim_tracegen.Stream.create
      ~config:(Resim.generator_config Config.reference) program
  in
  let source = Source.of_pull (fun () -> Resim_tracegen.Stream.pull stream) in
  let engine = Engine.create_from_source source in
  (* [Ph_account] follows fetch, the last phase that moves the window,
     so it sees the window as the cycle leaves it. *)
  let peak = ref 0 in
  Engine.set_phase_probe engine (function
    | Engine.Ph_account -> peak := Int.max !peak (Source.buffered source)
    | Ph_commit | Ph_writeback | Ph_issue | Ph_dispatch | Ph_decouple
    | Ph_fetch ->
        ());
  let stats = Engine.run engine in
  { stats;
    correct_path = Resim_tracegen.Stream.correct_path stream;
    wrong_path = Resim_tracegen.Stream.wrong_path stream;
    peak_buffered_records = !peak }
