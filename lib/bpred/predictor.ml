type config = {
  direction : Direction.config;
  btb : Btb.config;
  ras_depth : int;
}

let default_config =
  { direction = Direction.two_level_default;
    btb = Btb.default_config;
    ras_depth = 16 }

let perfect_config = { default_config with direction = Direction.Perfect }

type t = {
  config : config;
  oracle : bool;  (* [config.direction] is [Perfect] *)
  direction : Direction.t;
  btb : Btb.t;
  ras : Ras.t;
  mutable predictions : int;
  mutable correct : int;
}

type prediction = {
  taken : bool;
  target : int option;
  from_ras : bool;
}

let create config =
  { config;
    oracle =
      (match config.direction with
      | Perfect -> true
      | Static_taken | Static_not_taken | Bimodal _ | Two_level _ | Gshare _ ->
          false);
    direction = Direction.create config.direction;
    btb = Btb.create config.btb;
    ras = Ras.create config.ras_depth;
    predictions = 0;
    correct = 0 }

let config t = t.config

let predict t ~pc ~kind ~fallthrough ~actual_taken ~actual_target =
  t.predictions <- t.predictions + 1;
  let oracle = t.oracle in
  match (kind : Resim_isa.Opcode.branch_kind) with
  | Cond ->
      let taken = Direction.predict t.direction ~pc ~actual:actual_taken in
      if not taken then { taken = false; target = None; from_ras = false }
      else if oracle then
        { taken; target = Some actual_target; from_ras = false }
      else { taken; target = Btb.lookup t.btb ~pc; from_ras = false }
  | Jump ->
      if oracle then
        { taken = true; target = Some actual_target; from_ras = false }
      else { taken = true; target = Btb.lookup t.btb ~pc; from_ras = false }
  | Call ->
      Ras.push t.ras fallthrough;
      if oracle then
        { taken = true; target = Some actual_target; from_ras = false }
      else { taken = true; target = Btb.lookup t.btb ~pc; from_ras = false }
  | Ret -> (
      if oracle then begin
        ignore (Ras.pop t.ras);
        { taken = true; target = Some actual_target; from_ras = true }
      end
      else
        match Ras.pop t.ras with
        | Some target -> { taken = true; target = Some target; from_ras = true }
        | None ->
            { taken = true; target = Btb.lookup t.btb ~pc; from_ras = false })
  | Indirect ->
      if oracle then
        { taken = true; target = Some actual_target; from_ras = false }
      else { taken = true; target = Btb.lookup t.btb ~pc; from_ras = false }

let update t ~pc ~kind ~taken ~target =
  (match (kind : Resim_isa.Opcode.branch_kind) with
  | Cond -> Direction.update t.direction ~pc ~taken
  | Jump | Call | Ret | Indirect -> ());
  match (kind : Resim_isa.Opcode.branch_kind) with
  | Ret -> ()
  | Cond | Jump | Call | Indirect ->
      if taken then Btb.update t.btb ~pc ~target

let ras_snapshot t = Ras.snapshot t.ras
let ras_restore t saved = Ras.restore t.ras saved

let record_resolution t ~correct = if correct then t.correct <- t.correct + 1
