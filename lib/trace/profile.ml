type branch_site = {
  pc : int;
  executions : int;
  taken_rate : float;
}

let correct_path records =
  Array.to_seq records
  |> Seq.filter (fun (r : Record.t) -> not r.wrong_path)

let hot_branches ~top records =
  let sites = Hashtbl.create 64 in
  Seq.iter
    (fun (record : Record.t) ->
      match record.payload with
      | Record.Branch { kind = Resim_isa.Opcode.Cond; taken; _ } ->
          let executions, taken_count =
            Option.value (Hashtbl.find_opt sites record.pc) ~default:(0, 0)
          in
          Hashtbl.replace sites record.pc
            (executions + 1, taken_count + (if taken then 1 else 0))
      | Record.Branch _ | Record.Memory _ | Record.Other _ -> ())
    (correct_path records);
  Hashtbl.fold
    (fun pc (executions, taken) acc ->
      { pc;
        executions;
        taken_rate = float_of_int taken /. float_of_int executions }
      :: acc)
    sites []
  |> List.sort (fun a b -> compare b.executions a.executions)
  |> List.filteri (fun i _ -> i < top)

let page_bytes = 4096

let page_counts records =
  let pages = Hashtbl.create 64 in
  Seq.iter
    (fun (record : Record.t) ->
      match record.payload with
      | Record.Memory { address; _ } ->
          let page = address land lnot (page_bytes - 1) in
          Hashtbl.replace pages page
            (1 + Option.value (Hashtbl.find_opt pages page) ~default:0)
      | Record.Branch _ | Record.Other _ -> ())
    (correct_path records);
  pages

let hot_pages ~top records =
  Hashtbl.fold (fun page count acc -> (page, count) :: acc)
    (page_counts records) []
  |> List.sort (fun (_, a) (_, b) -> compare b a)
  |> List.filteri (fun i _ -> i < top)

type mix = {
  alu : float;
  mult : float;
  divide : float;
  load : float;
  store : float;
  branch : float;
}

let instruction_mix records =
  let alu = ref 0 and mult = ref 0 and divide = ref 0 in
  let load = ref 0 and store = ref 0 and branch = ref 0 in
  let total = ref 0 in
  Seq.iter
    (fun (record : Record.t) ->
      incr total;
      match record.payload with
      | Record.Other { op_class = Record.Alu } -> incr alu
      | Record.Other { op_class = Record.Mult } -> incr mult
      | Record.Other { op_class = Record.Divide } -> incr divide
      | Record.Memory { is_load = true; _ } -> incr load
      | Record.Memory { is_load = false; _ } -> incr store
      | Record.Branch _ -> incr branch)
    (correct_path records);
  let fraction counter =
    if !total = 0 then 0.0 else float_of_int !counter /. float_of_int !total
  in
  { alu = fraction alu; mult = fraction mult; divide = fraction divide;
    load = fraction load; store = fraction store; branch = fraction branch }

let memory_footprint_bytes records =
  page_bytes * Hashtbl.length (page_counts records)

let pp_report ppf records =
  let mix = instruction_mix records in
  Format.fprintf ppf
    "@[<v>mix: %.1f%% alu, %.1f%% mult, %.1f%% div, %.1f%% load, %.1f%% \
     store, %.1f%% branch@,footprint: %d KB@,hot branches:@,"
    (100. *. mix.alu) (100. *. mix.mult) (100. *. mix.divide)
    (100. *. mix.load) (100. *. mix.store) (100. *. mix.branch)
    (memory_footprint_bytes records / 1024);
  List.iter
    (fun site ->
      Format.fprintf ppf "  pc %-8d x%-8d taken %5.1f%%@," site.pc
        site.executions
        (100.0 *. site.taken_rate))
    (hot_branches ~top:5 records);
  Format.fprintf ppf "hot pages:@,";
  List.iter
    (fun (page, accesses) ->
      Format.fprintf ppf "  %#10x x%d@," page accesses)
    (hot_pages ~top:5 records);
  Format.fprintf ppf "@]"
