type t = {
  total : int;
  correct_path : int;
  wrong_path : int;
  branches : int;
  cond_branches : int;
  taken_branches : int;
  loads : int;
  stores : int;
  mults : int;
  divides : int;
}

(* One mutable cell per field, so counting allocates nothing; the
   immutable [t] is built once, by [result]. *)
type counter = {
  mutable c_total : int;
  mutable c_wrong_path : int;
  mutable c_branches : int;
  mutable c_cond_branches : int;
  mutable c_taken_branches : int;
  mutable c_loads : int;
  mutable c_stores : int;
  mutable c_mults : int;
  mutable c_divides : int;
}

let counter () =
  { c_total = 0; c_wrong_path = 0; c_branches = 0; c_cond_branches = 0;
    c_taken_branches = 0; c_loads = 0; c_stores = 0; c_mults = 0;
    c_divides = 0 }

let count c (record : Record.t) =
  c.c_total <- c.c_total + 1;
  if record.wrong_path then c.c_wrong_path <- c.c_wrong_path + 1;
  match record.payload with
  | Branch { kind; taken; _ } ->
      c.c_branches <- c.c_branches + 1;
      (match kind with
      | Cond -> c.c_cond_branches <- c.c_cond_branches + 1
      | Jump | Call | Ret | Indirect -> ());
      if taken then c.c_taken_branches <- c.c_taken_branches + 1
  | Memory { is_load; _ } ->
      if is_load then c.c_loads <- c.c_loads + 1
      else c.c_stores <- c.c_stores + 1
  | Other { op_class = Mult } -> c.c_mults <- c.c_mults + 1
  | Other { op_class = Divide } -> c.c_divides <- c.c_divides + 1
  | Other { op_class = Alu } -> ()

let result c =
  { total = c.c_total;
    correct_path = c.c_total - c.c_wrong_path;
    wrong_path = c.c_wrong_path;
    branches = c.c_branches;
    cond_branches = c.c_cond_branches;
    taken_branches = c.c_taken_branches;
    loads = c.c_loads;
    stores = c.c_stores;
    mults = c.c_mults;
    divides = c.c_divides }

let of_records records =
  let c = counter () in
  Array.iter (count c) records;
  result c

let wrong_path_fraction t =
  if t.total = 0 then 0.0 else float_of_int t.wrong_path /. float_of_int t.total

let pp ppf t =
  Format.fprintf ppf
    "@[<v>records: %d (%d correct, %d wrong-path = %.1f%%)@,\
     branches: %d (%d conditional, %d taken)@,\
     memory: %d loads, %d stores@,\
     long-latency: %d mult, %d div@]"
    t.total t.correct_path t.wrong_path (100.0 *. wrong_path_fraction t)
    t.branches t.cond_branches t.taken_branches t.loads t.stores t.mults
    t.divides
