type unit_ =
  | Fetch of int
  | Decouple of int
  | Dispatch of int
  | Lsq_refresh
  | Issue of int
  | Cache_access of int
  | Writeback of int
  | Commit of int
  | Bookkeeping

let unit_name = function
  | Fetch i -> Printf.sprintf "F%d" i
  | Decouple i -> Printf.sprintf "DPL%d" i
  | Dispatch i -> Printf.sprintf "D%d" i
  | Lsq_refresh -> "LSQr"
  | Issue i -> Printf.sprintf "I%d" i
  | Cache_access i -> Printf.sprintf "CA%d" i
  | Writeback i -> Printf.sprintf "WB%d" i
  | Commit i -> Printf.sprintf "C%d" i
  | Bookkeeping -> "BK"

type slot = { minor : int; units : unit_ list }

type t = {
  organization : Config.organization;
  width : int;
  length : int;
  slots : slot list;
}

(* Build the slot list from (unit, minor) placements. *)
let slots_of_placements ~length placements =
  List.init length (fun i ->
      let minor = i + 1 in
      let units =
        List.filter_map
          (fun (unit_, at) -> if at = minor then Some unit_ else None)
          placements
      in
      { minor; units })

let simple_placements width =
  let per_slot f = List.init width (fun i -> f (i + 1)) in
  List.concat
    [ per_slot (fun i -> (Fetch i, i));
      per_slot (fun i -> (Decouple i, i + 1));
      per_slot (fun i -> (Dispatch i, i + 2));
      per_slot (fun i -> (Writeback i, i));
      [ (Lsq_refresh, width + 1) ];
      per_slot (fun i -> (Issue i, width + 1 + i));
      per_slot (fun i -> (Cache_access i, width + 2 + i));
      per_slot (fun i -> (Commit i, width + 1 + i));
      [ (Bookkeeping, (2 * width) + 3) ] ]

let improved_placements width =
  let per_slot f = List.init width (fun i -> f (i + 1)) in
  List.concat
    [ per_slot (fun i -> (Fetch i, i));
      per_slot (fun i -> (Decouple i, i + 1));
      per_slot (fun i -> (Dispatch i, i + 2));
      [ (Lsq_refresh, 1) ];
      per_slot (fun i -> (Issue i, i + 1));
      per_slot (fun i -> (Cache_access i, i + 2));
      per_slot (fun i -> (Writeback i, i + 3));
      per_slot (fun i -> (Commit i, i));
      [ (Bookkeeping, width + 4) ] ]

let optimized_placements width =
  let per_slot f = List.init width (fun i -> f (i + 1)) in
  let cache_accesses =
    (* The first Issue slot is barred to loads, so it needs no cache
       access minor cycle. *)
    List.filter_map
      (fun i -> if i = 1 then None else Some (Cache_access i, i + 1))
      (List.init width (fun i -> i + 1))
  in
  List.concat
    [ per_slot (fun i -> (Fetch i, i));
      per_slot (fun i -> (Decouple i, i + 1));
      per_slot (fun i -> (Dispatch i, i + 2));
      [ (Lsq_refresh, 1) ];
      per_slot (fun i -> (Issue i, i));
      cache_accesses;
      per_slot (fun i -> (Writeback i, i + 2));
      per_slot (fun i -> (Commit i, i));
      [ (Bookkeeping, width + 3) ] ]

let build organization ~width =
  if width <= 0 then invalid_arg "Minor_cycle.build: width must be positive";
  let length = Config.minor_cycles_per_major organization ~width in
  let placements =
    match organization with
    | Config.Simple -> simple_placements width
    | Config.Improved -> improved_placements width
    | Config.Optimized -> optimized_placements width
  in
  (* Sanity: no placement may fall outside the major cycle. *)
  List.iter
    (fun (unit_, at) ->
      if at < 1 || at > length then
        invalid_arg
          (Printf.sprintf "Minor_cycle.build: %s placed at %d of %d"
             (unit_name unit_) at length))
    placements;
  { organization; width; length; slots = slots_of_placements ~length placements }

(* Lanes for the diagram, one row per stage. *)
let lanes =
  [ ("Fetch", function Fetch i -> Some i | _ -> None);
    ("Decouple", function Decouple i -> Some i | _ -> None);
    ("Dispatch", function Dispatch i -> Some i | _ -> None);
    ("Lsq_refresh", function Lsq_refresh -> Some 0 | _ -> None);
    ("Issue", function Issue i -> Some i | _ -> None);
    ("CacheAccess", function Cache_access i -> Some i | _ -> None);
    ("Writeback", function Writeback i -> Some i | _ -> None);
    ("Commit", function Commit i -> Some i | _ -> None);
    ("Bookkeeping", function Bookkeeping -> Some 0 | _ -> None) ]

let render t =
  let buffer = Buffer.create 1024 in
  Printf.bprintf buffer
    "%s organization, %d-wide: %d minor cycles per major cycle\n"
    (String.capitalize_ascii (Config.organization_name t.organization))
    t.width t.length;
  Printf.bprintf buffer "%-12s" "minor:";
  List.iter (fun slot -> Printf.bprintf buffer "%4d" slot.minor) t.slots;
  Buffer.add_char buffer '\n';
  List.iter
    (fun (name, match_unit) ->
      let cells =
        List.map
          (fun slot ->
            match List.filter_map match_unit slot.units with
            | [] -> "   ."
            | 0 :: _ -> "   X"
            | i :: _ -> Printf.sprintf "%4d" i)
          t.slots
      in
      if List.exists (fun c -> c <> "   .") cells then begin
        Printf.bprintf buffer "%-12s" name;
        List.iter (Buffer.add_string buffer) cells;
        Buffer.add_char buffer '\n'
      end)
    lanes;
  Buffer.contents buffer
