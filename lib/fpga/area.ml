type params = {
  width : int;
  ifq_entries : int;
  decouple_entries : int;
  rob_entries : int;
  lsq_entries : int;
  arch_regs : int;
  bht_entries : int;
  history_bits : int;
  pht_entries : int;
  btb_entries : int;
  ras_depth : int;
  with_icache : bool;
  with_dcache : bool;
}

let reference_params =
  { width = 4; ifq_entries = 4; decouple_entries = 4; rob_entries = 16;
    lsq_entries = 8; arch_regs = 32; bht_entries = 4; history_bits = 8;
    pht_entries = 4096; btb_entries = 512; ras_depth = 16;
    with_icache = true; with_dcache = true }

type structure =
  | Fetch_stage
  | Dispatch_stage
  | Issue_stage
  | Lsq_stage
  | Writeback_stage
  | Commit_stage
  | Rename_table
  | Reorder_buffer
  | Lsq_structure
  | Branch_predictor
  | Dcache
  | Icache

let structure_name = function
  | Fetch_stage -> "fetch"
  | Dispatch_stage -> "disp"
  | Issue_stage -> "issue"
  | Lsq_stage -> "lsq"
  | Writeback_stage -> "wb"
  | Commit_stage -> "cmt"
  | Rename_table -> "RT"
  | Reorder_buffer -> "RB"
  | Lsq_structure -> "LSQ"
  | Branch_predictor -> "BP"
  | Dcache -> "D-C"
  | Icache -> "I-C"

let structures =
  [ Fetch_stage; Dispatch_stage; Issue_stage; Lsq_stage; Writeback_stage;
    Commit_stage; Rename_table; Reorder_buffer; Lsq_structure;
    Branch_predictor; Dcache; Icache ]

type cost = { slices : int; luts : int; brams : int }

type report = {
  per_structure : (structure * cost) list;
  total : cost;
  total_with_caches : cost;
}

(* Reference costs, back-solved from Table 4: the published percentages
   are of the whole design (caches included) while the published totals
   (12 273 slices, 17 175 LUTs) exclude the caches. *)
let reference_cost = function
  | Fetch_stage -> { slices = 3742; luts = 4703; brams = 0 }
  | Dispatch_stage -> { slices = 1347; luts = 1022; brams = 0 }
  | Issue_stage -> { slices = 748; luts = 1431; brams = 0 }
  | Lsq_stage -> { slices = 2095; luts = 3885; brams = 0 }
  | Writeback_stage -> { slices = 449; luts = 818; brams = 0 }
  | Commit_stage -> { slices = 299; luts = 409; brams = 0 }
  | Rename_table -> { slices = 449; luts = 818; brams = 0 }
  | Reorder_buffer -> { slices = 1946; luts = 2862; brams = 0 }
  | Lsq_structure -> { slices = 898; luts = 818; brams = 0 }
  | Branch_predictor -> { slices = 299; luts = 409; brams = 5 }
  | Dcache -> { slices = 2544; luts = 3067; brams = 0 }
  | Icache -> { slices = 150; luts = 204; brams = 2 }

let ratio a b = float_of_int a /. float_of_int b

let log2f n = log (float_of_int (max 1 n)) /. log 2.0

(* Weighted blend of scaling ratios; weights must sum to 1. *)
let blend terms =
  List.fold_left (fun acc (weight, r) -> acc +. (weight *. r)) 0.0 terms

(* Predictor storage bits: PHT 2-bit counters, BTB tag+target entries
   (~44 bits), BHT history registers, RAS entries (~30 bits). *)
let predictor_storage_bits p =
  (2 * p.pht_entries) + (44 * p.btb_entries)
  + (p.bht_entries * p.history_bits) + (30 * p.ras_depth)

(* Scaling law of each structure relative to the reference parameters.
   Serial execution keeps datapaths one instruction wide, so issue width
   mostly contributes control logic, while storage structures scale with
   their entry counts. *)
let scale p structure =
  let ref_ = reference_params in
  match structure with
  | Fetch_stage ->
      blend [ (0.7, ratio p.ifq_entries ref_.ifq_entries);
              (0.3, ratio p.width ref_.width) ]
  | Dispatch_stage ->
      blend [ (0.7, ratio p.decouple_entries ref_.decouple_entries);
              (0.3, ratio p.width ref_.width) ]
  | Issue_stage ->
      blend [ (0.5, ratio p.rob_entries ref_.rob_entries);
              (0.5, ratio p.width ref_.width) ]
  | Lsq_stage | Lsq_structure -> ratio p.lsq_entries ref_.lsq_entries
  | Writeback_stage | Commit_stage -> ratio p.width ref_.width
  | Rename_table ->
      blend [ (0.5, ratio p.arch_regs ref_.arch_regs);
              (0.5, log2f p.rob_entries /. log2f ref_.rob_entries) ]
  | Reorder_buffer -> ratio p.rob_entries ref_.rob_entries
  | Branch_predictor ->
      ratio (predictor_storage_bits p) (predictor_storage_bits ref_)
  | Dcache -> if p.with_dcache then 1.0 else 0.0
  | Icache -> if p.with_icache then 1.0 else 0.0

let scaled_cost p structure =
  let ref_cost = reference_cost structure in
  let s = scale p structure in
  let apply v = int_of_float (Float.round (float_of_int v *. s)) in
  let brams =
    match structure with
    | Branch_predictor ->
        (* BRAM count is quantised: storage ratio applied to the 5
           reference blocks, at least one when any storage exists. *)
        max 1 (int_of_float (ceil (float_of_int ref_cost.brams *. s)))
    | Icache -> if p.with_icache then ref_cost.brams else 0
    | Fetch_stage | Dispatch_stage | Issue_stage | Lsq_stage
    | Writeback_stage | Commit_stage | Rename_table | Reorder_buffer
    | Lsq_structure | Dcache -> 0
  in
  { slices = apply ref_cost.slices; luts = apply ref_cost.luts; brams }

let add_cost a b =
  { slices = a.slices + b.slices; luts = a.luts + b.luts;
    brams = a.brams + b.brams }

let zero_cost = { slices = 0; luts = 0; brams = 0 }

let is_cache = function
  | Dcache | Icache -> true
  | Fetch_stage | Dispatch_stage | Issue_stage | Lsq_stage
  | Writeback_stage | Commit_stage | Rename_table | Reorder_buffer
  | Lsq_structure | Branch_predictor -> false

let estimate params =
  let per_structure =
    List.map (fun s -> (s, scaled_cost params s)) structures
  in
  let total =
    List.fold_left
      (fun acc (s, c) -> if is_cache s then acc else add_cost acc c)
      zero_cost per_structure
  in
  let total_with_caches =
    List.fold_left (fun acc (_, c) -> add_cost acc c) zero_cost per_structure
  in
  { per_structure; total; total_with_caches }

let fits report device =
  report.total_with_caches.slices <= device.Device.slices
  && report.total_with_caches.luts <= device.Device.luts
  && report.total_with_caches.brams <= device.Device.brams

let utilisation report device =
  ratio report.total_with_caches.slices device.Device.slices

let instances_fitting report device =
  let cost = report.total_with_caches in
  if cost.brams = 0 && cost.luts = 0 && cost.slices = 0 then 0
  else begin
    let by_brams =
      if cost.brams = 0 then max_int else device.Device.brams / cost.brams
    in
    let by_logic =
      match device.Device.family with
      | Device.Virtex4 ->
          min (device.Device.slices / max 1 cost.slices)
            (device.Device.luts / max 1 cost.luts)
      | Device.Virtex5 ->
          (* 6-input LUTs absorb ~1.6 4-input LUTs of logic. *)
          int_of_float
            (float_of_int device.Device.luts *. 1.6
            /. float_of_int (max 1 cost.luts))
    in
    min by_brams by_logic
  end

let percentage report structure =
  match List.assoc_opt structure report.per_structure with
  | None -> 0.0
  | Some cost ->
      if report.total_with_caches.slices = 0 then 0.0
      else
        100.0 *. float_of_int cost.slices
        /. float_of_int report.total_with_caches.slices

let pp_report ppf report =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun (s, c) ->
      Format.fprintf ppf "%-6s slices=%-6d luts=%-6d brams=%d (%.1f%%)@,"
        (structure_name s) c.slices c.luts c.brams (percentage report s))
    report.per_structure;
  Format.fprintf ppf "total (no caches): slices=%d luts=%d brams=%d@,"
    report.total.slices report.total.luts report.total.brams;
  Format.fprintf ppf "total (w/ caches): slices=%d luts=%d brams=%d@]"
    report.total_with_caches.slices report.total_with_caches.luts
    report.total_with_caches.brams
