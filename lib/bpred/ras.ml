type t = {
  slots : int array;
  mutable top : int;      (* index of the next free slot *)
  mutable occupancy : int;
}

let create depth =
  if depth <= 0 then invalid_arg "Ras.create: depth must be positive";
  { slots = Array.make depth 0; top = 0; occupancy = 0 }

let depth t = Array.length t.slots

let push t address =
  t.slots.(t.top) <- address;
  t.top <- (t.top + 1) mod depth t;
  if t.occupancy < depth t then t.occupancy <- t.occupancy + 1

let pop t =
  if t.occupancy = 0 then None
  else begin
    t.top <- (t.top + depth t - 1) mod depth t;
    t.occupancy <- t.occupancy - 1;
    Some t.slots.(t.top)
  end

let snapshot t =
  { slots = Array.copy t.slots; top = t.top; occupancy = t.occupancy }

let restore t saved =
  if depth t <> depth saved then
    invalid_arg "Ras.restore: depth mismatch";
  Array.blit saved.slots 0 t.slots 0 (depth t);
  t.top <- saved.top;
  t.occupancy <- saved.occupancy
