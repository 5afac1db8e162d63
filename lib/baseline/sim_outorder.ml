type result = {
  outcome : Resim_core.Resim.outcome;
  functional_instructions : int;
}

let run program =
  (* Functional pass: interpretation, branch prediction, speculative
     wrong-path execution with rollback. *)
  let generated =
    Resim_tracegen.Generator.run
      ~config:(Resim_core.Resim.generator_config Resim_core.Config.reference)
      program
  in
  (* Timing pass over the freshly produced records, as an
     execution-driven simulator performs inline. *)
  let outcome =
    Resim_core.Resim.(outcome_exn (run (Records generated.records)))
  in
  { outcome;
    functional_instructions =
      generated.correct_path + generated.wrong_path }

let functional_only program =
  let machine = Resim_isa.Machine.create program in
  Resim_isa.Interpreter.run machine program
