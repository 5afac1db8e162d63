(* Counters are plain [int ref]s: incrementing a boxed int64 allocates
   on every bump, and the engine bumps several counters per simulated
   instruction. 63 bits of headroom is far beyond any reachable run;
   the API still reports int64, converted only when read. *)
type counter = int ref

type t = {
  major_cycles : counter;
  fetched : counter;
  fetched_wrong_path : counter;
  discarded_wrong_path : counter;
  dispatched : counter;
  issued : counter;
  committed : counter;
  committed_branches : counter;
  committed_cond_branches : counter;
  committed_loads : counter;
  committed_stores : counter;
  committed_mult_div : counter;
  mispredictions : counter;
  misfetches : counter;
  forwarded_loads : counter;
  icache_stall_cycles : counter;
  fetch_penalty_cycles : counter;
  rob_full_stalls : counter;
  lsq_full_stalls : counter;
  write_port_stalls : counter;
  read_port_stalls : counter;
  (* Stall-cause taxonomy for the observability layer: front-end
     starvation, structural-hazard issue stalls and per-cause recovery
     attribution of the fetch penalty cycles. *)
  ifq_empty_stalls : counter;
  fu_busy_stalls : counter;
  misfetch_recovery_cycles : counter;
  mispredict_recovery_cycles : counter;
  (* Faults survived in degraded mode (codec resyncs, salvage decodes):
     non-zero marks every derived figure as approximate. *)
  degraded_faults : counter;
  commit_width : Histogram.t;
  issue_width : Histogram.t;
  mutable ifq_occupancy_sum : int;
  mutable rob_occupancy_sum : int;
  mutable lsq_occupancy_sum : int;
  mutable occupancy_samples : int;
}

let create () =
  { major_cycles = ref 0;
    fetched = ref 0;
    fetched_wrong_path = ref 0;
    discarded_wrong_path = ref 0;
    dispatched = ref 0;
    issued = ref 0;
    committed = ref 0;
    committed_branches = ref 0;
    committed_cond_branches = ref 0;
    committed_loads = ref 0;
    committed_stores = ref 0;
    committed_mult_div = ref 0;
    mispredictions = ref 0;
    misfetches = ref 0;
    forwarded_loads = ref 0;
    icache_stall_cycles = ref 0;
    fetch_penalty_cycles = ref 0;
    rob_full_stalls = ref 0;
    lsq_full_stalls = ref 0;
    write_port_stalls = ref 0;
    read_port_stalls = ref 0;
    ifq_empty_stalls = ref 0;
    fu_busy_stalls = ref 0;
    misfetch_recovery_cycles = ref 0;
    mispredict_recovery_cycles = ref 0;
    degraded_faults = ref 0;
    commit_width = Histogram.create ~bins:17;
    issue_width = Histogram.create ~bins:17;
    ifq_occupancy_sum = 0;
    rob_occupancy_sum = 0;
    lsq_occupancy_sum = 0;
    occupancy_samples = 0 }

let incr t field = Stdlib.incr (field t)
let add t field n = (field t) := !(field t) + n

(* The engine's closure family (DESIGN.md §14) fetches the underlying
   cells once, when the engine is created, and bumps them with raw ref
   arithmetic — the accessor indirection above costs two calls per
   bump, which the per-cycle code cannot afford. *)
let live field t : int ref = field t

let major_cycles t = t.major_cycles
let fetched t = t.fetched
let fetched_wrong_path t = t.fetched_wrong_path
let discarded_wrong_path t = t.discarded_wrong_path
let dispatched t = t.dispatched
let issued t = t.issued
let committed t = t.committed
let committed_branches t = t.committed_branches
let committed_cond_branches t = t.committed_cond_branches
let committed_loads t = t.committed_loads
let committed_stores t = t.committed_stores
let committed_mult_div t = t.committed_mult_div
let mispredictions t = t.mispredictions
let misfetches t = t.misfetches
let forwarded_loads t = t.forwarded_loads
let icache_stall_cycles t = t.icache_stall_cycles
let fetch_penalty_cycles t = t.fetch_penalty_cycles
let rob_full_stalls t = t.rob_full_stalls
let lsq_full_stalls t = t.lsq_full_stalls
let write_port_stalls t = t.write_port_stalls
let read_port_stalls t = t.read_port_stalls
let ifq_empty_stalls t = t.ifq_empty_stalls
let fu_busy_stalls t = t.fu_busy_stalls
let misfetch_recovery_cycles t = t.misfetch_recovery_cycles
let mispredict_recovery_cycles t = t.mispredict_recovery_cycles

let mark_degraded ?(faults = 1) t =
  t.degraded_faults := !(t.degraded_faults) + faults

let degraded t = !(t.degraded_faults) > 0

let commit_width_histogram t = t.commit_width
let issue_width_histogram t = t.issue_width
let observe_commit_width t width = Histogram.observe t.commit_width width
let observe_issue_width t width = Histogram.observe t.issue_width width

let sample_occupancy t ~ifq ~rob ~lsq =
  t.ifq_occupancy_sum <- t.ifq_occupancy_sum + ifq;
  t.rob_occupancy_sum <- t.rob_occupancy_sum + rob;
  t.lsq_occupancy_sum <- t.lsq_occupancy_sum + lsq;
  t.occupancy_samples <- t.occupancy_samples + 1

let mean sum t =
  if t.occupancy_samples = 0 then 0.0
  else float_of_int sum /. float_of_int t.occupancy_samples

let mean_ifq_occupancy t = mean t.ifq_occupancy_sum t
let mean_rob_occupancy t = mean t.rob_occupancy_sum t
let mean_lsq_occupancy t = mean t.lsq_occupancy_sum t

let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den
let ipc t = ratio !(t.committed) !(t.major_cycles)
(* All fetched records (wrong path included) per major cycle — the
   Table 3 throughput basis. *)
let fetched_per_cycle t = ratio !(t.fetched) !(t.major_cycles)

let get_int field t = !(field t)
let get field t = Int64.of_int !(field t)

let to_assoc t =
  List.map
    (fun (name, value) -> (name, Int64.of_int value))
    [ ("major_cycles", !(t.major_cycles));
      ("fetched", !(t.fetched));
      ("fetched_wrong_path", !(t.fetched_wrong_path));
      ("discarded_wrong_path", !(t.discarded_wrong_path));
      ("dispatched", !(t.dispatched));
      ("issued", !(t.issued));
      ("committed", !(t.committed));
      ("committed_branches", !(t.committed_branches));
      ("committed_cond_branches", !(t.committed_cond_branches));
      ("committed_loads", !(t.committed_loads));
      ("committed_stores", !(t.committed_stores));
      ("committed_mult_div", !(t.committed_mult_div));
      ("mispredictions", !(t.mispredictions));
      ("misfetches", !(t.misfetches));
      ("forwarded_loads", !(t.forwarded_loads));
      ("icache_stall_cycles", !(t.icache_stall_cycles));
      ("fetch_penalty_cycles", !(t.fetch_penalty_cycles));
      ("rob_full_stalls", !(t.rob_full_stalls));
      ("lsq_full_stalls", !(t.lsq_full_stalls));
      ("write_port_stalls", !(t.write_port_stalls));
      ("read_port_stalls", !(t.read_port_stalls));
      ("ifq_empty_stalls", !(t.ifq_empty_stalls));
      ("fu_busy_stalls", !(t.fu_busy_stalls));
      ("misfetch_recovery_cycles", !(t.misfetch_recovery_cycles));
      ("mispredict_recovery_cycles", !(t.mispredict_recovery_cycles));
      ("degraded_faults", !(t.degraded_faults)) ]

(* ------------------------------------------------------------------ *)
(* Metrics export: the observability layer's machine-readable view.
   [stall_causes] is the stable taxonomy (DESIGN.md §11) consumed by
   `resim simulate --metrics`, the sweep report and `bench --json`;
   [to_json]/[csv_row] are the stable emitters. Every derived ratio
   guards the zero-cycle case, so metrics from an empty or fully
   truncated run are well-formed zeros rather than NaN/inf. *)

let stall_causes t =
  [ ("ifq_empty", Int64.of_int !(t.ifq_empty_stalls));
    ("rob_full", Int64.of_int !(t.rob_full_stalls));
    ("lsq_full", Int64.of_int !(t.lsq_full_stalls));
    ("fu_busy", Int64.of_int !(t.fu_busy_stalls));
    ("rd_port", Int64.of_int !(t.read_port_stalls));
    ("wr_port", Int64.of_int !(t.write_port_stalls));
    ("icache", Int64.of_int !(t.icache_stall_cycles));
    ("misfetch_recovery", Int64.of_int !(t.misfetch_recovery_cycles));
    ("mispredict_recovery", Int64.of_int !(t.mispredict_recovery_cycles)) ]

let fetch_penalty_fraction t =
  ratio !(t.fetch_penalty_cycles) !(t.major_cycles)

let commit_starved_fraction t =
  (* Major cycles that committed nothing — the paper's first question
     when localizing lost throughput. *)
  if Int64.equal (Histogram.total t.commit_width) 0L then 0.0
  else Histogram.fraction_at t.commit_width 0

let to_json t =
  let counters assoc =
    Json.Obj (List.map (fun (name, value) -> (name, Json.int64 value)) assoc)
  in
  let histogram h =
    Json.List
      (List.filter_map
         (fun value ->
           let count = Histogram.count h value in
           if Int64.equal count 0L then None
           else
             Some
               (Json.Obj
                  [ ("value", Json.int value); ("count", Json.int64 count) ]))
         (List.init (Histogram.bins h) Fun.id))
  in
  let ratio f = Json.fixed 6 (f t) in
  Json.to_string ~layout:Lines
    (Json.Obj
       [ ("counters", counters (to_assoc t));
         ("stall_causes", counters (stall_causes t));
         ( "derived",
           Json.Obj
             [ ("ipc", ratio ipc);
               ("fetched_per_cycle", ratio fetched_per_cycle);
               ("fetch_penalty_fraction", ratio fetch_penalty_fraction);
               ("commit_starved_fraction", ratio commit_starved_fraction);
               ("mean_ifq_occupancy", ratio mean_ifq_occupancy);
               ("mean_rob_occupancy", ratio mean_rob_occupancy);
               ("mean_lsq_occupancy", ratio mean_lsq_occupancy) ] );
         ("commit_width", histogram t.commit_width);
         ("issue_width", histogram t.issue_width);
         ("degraded", Json.Bool (degraded t)) ])

let csv_header () = String.concat "," (List.map fst (to_assoc (create ())))

let csv_row t =
  String.concat "," (List.map (fun (_, v) -> Int64.to_string v) (to_assoc t))

let pp ppf t =
  if degraded t then
    Format.fprintf ppf "DEGRADED: %d fault(s) survived in degraded mode@\n"
      !(t.degraded_faults);
  Format.fprintf ppf
    "@[<v>major cycles: %d@,\
     fetched: %d (%d wrong-path, %d discarded)@,\
     dispatched: %d, issued: %d, committed: %d (IPC %.3f)@,\
     branches: %d committed (%d conditional), %d squashes, %d misfetches@,\
     memory: %d loads (%d forwarded), %d stores@,\
     long ops: %d mult/div@,\
     stalls: %d rob-full, %d lsq-full, %d rd-port, %d wr-port, \
     %d ifq-empty, %d fu-busy@,\
     fetch: %d icache-stall cycles, %d penalty cycles \
     (%d misfetch, %d mispredict recovery)@,\
     occupancy: IFQ %.2f, ROB %.2f, LSQ %.2f@,\
     commit width: %a@,\
     issue width: %a@]"
    !(t.major_cycles) !(t.fetched) !(t.fetched_wrong_path)
    !(t.discarded_wrong_path) !(t.dispatched) !(t.issued) !(t.committed)
    (ipc t) !(t.committed_branches) !(t.committed_cond_branches)
    !(t.mispredictions) !(t.misfetches) !(t.committed_loads)
    !(t.forwarded_loads) !(t.committed_stores) !(t.committed_mult_div)
    !(t.rob_full_stalls) !(t.lsq_full_stalls) !(t.read_port_stalls)
    !(t.write_port_stalls) !(t.ifq_empty_stalls) !(t.fu_busy_stalls)
    !(t.icache_stall_cycles) !(t.fetch_penalty_cycles)
    !(t.misfetch_recovery_cycles) !(t.mispredict_recovery_cycles)
    (mean_ifq_occupancy t) (mean_rob_occupancy t)
    (mean_lsq_occupancy t) Histogram.pp t.commit_width Histogram.pp
    t.issue_width
