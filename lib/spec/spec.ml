open Resim_core

type mode = Auto | Never

let install ~mode engine =
  match mode with
  | Auto -> true
  | Never ->
      Engine.use_reference engine;
      false

let instrument mode engine = ignore (install ~mode engine : bool)
