type result = {
  outcome : Resim_core.Resim.outcome;
  functional_instructions : int;
}

let run ?(config = Resim_core.Config.reference) ?(max_instructions = 20_000_000)
    program =
  let generator =
    { (Resim_core.Resim.generator_config config) with max_instructions }
  in
  (* Functional pass: interpretation, branch prediction, speculative
     wrong-path execution with rollback. *)
  let generated = Resim_tracegen.Generator.run ~config:generator program in
  (* Timing pass over the freshly produced records, as an
     execution-driven simulator performs inline. *)
  let outcome =
    Resim_core.Resim.(outcome_exn (run ~config (Records generated.records)))
  in
  { outcome;
    functional_instructions =
      generated.correct_path + generated.wrong_path }

let functional_only ?max_steps program =
  let machine = Resim_isa.Machine.create ~program () in
  Resim_isa.Interpreter.run ?max_steps machine program
