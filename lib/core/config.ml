type organization = Simple | Improved | Optimized

let organization_name = function
  | Simple -> "simple"
  | Improved -> "improved"
  | Optimized -> "optimized"

(* A match, not [= Optimized]: the engine consults this on per-cycle
   paths, where polymorphic equality on the variant would be an
   external caml_equal call (lint rule RSM-L002). *)
let is_optimized = function
  | Optimized -> true
  | Simple | Improved -> false

let minor_cycles_per_major organization ~width =
  match organization with
  | Simple -> (2 * width) + 3
  | Improved -> width + 4
  | Optimized -> width + 3

type t = {
  width : int;
  ifq_entries : int;
  decouple_entries : int;
  rob_entries : int;
  lsq_entries : int;
  alu_count : int;
  alu_latency : int;
  mult_count : int;
  mult_latency : int;
  div_count : int;
  div_latency : int;
  mem_read_ports : int;
  mem_write_ports : int;
  misfetch_penalty : int;
  misspeculation_penalty : int;
  organization : organization;
  predictor : Resim_bpred.Predictor.config;
  icache : Resim_cache.Cache.config;
  dcache : Resim_cache.Cache.config;
  cache_timing : Resim_cache.Cache.timing;
  l2cache : Resim_cache.Cache.config option;
  l2_timing : Resim_cache.Cache.timing;
}

let reference =
  { width = 4;
    ifq_entries = 4;
    decouple_entries = 4;
    rob_entries = 16;
    lsq_entries = 8;
    alu_count = 4;
    alu_latency = 1;
    mult_count = 1;
    mult_latency = 3;
    div_count = 1;
    div_latency = 10;
    mem_read_ports = 2;
    mem_write_ports = 1;
    misfetch_penalty = 3;
    misspeculation_penalty = 3;
    organization = Optimized;
    predictor = Resim_bpred.Predictor.default_config;
    icache = Resim_cache.Cache.Perfect;
    dcache = Resim_cache.Cache.Perfect;
    cache_timing = Resim_cache.Cache.default_timing;
    l2cache = None;
    l2_timing = { Resim_cache.Cache.hit_latency = 6; miss_latency = 40 } }

let fast_comparable =
  { reference with
    width = 2;
    ifq_entries = 2;
    decouple_entries = 2;
    alu_count = 2;
    mem_read_ports = 1;
    mem_write_ports = 1;
    organization = Improved;
    predictor = Resim_bpred.Predictor.perfect_config;
    icache = Resim_cache.Cache.l1_32k_8way_64b;
    dcache = Resim_cache.Cache.l1_32k_8way_64b }

let validate t =
  let fail fmt = Printf.ksprintf (fun message -> Error message) fmt in
  if t.width <= 0 then fail "width must be positive"
  else if t.ifq_entries < t.width then
    fail "IFQ must hold at least one fetch group (%d < width %d)"
      t.ifq_entries t.width
  else if t.decouple_entries <= 0 then fail "decouple buffer must be non-empty"
  else if t.rob_entries < t.width then
    fail "reorder buffer smaller than issue width"
  else if t.lsq_entries <= 0 then fail "LSQ must be non-empty"
  else if t.alu_count <= 0 then fail "at least one ALU is required"
  else if t.alu_latency <= 0 || t.mult_latency <= 0 || t.div_latency <= 0 then
    fail "functional-unit latencies must be positive"
  else if t.mem_read_ports <= 0 || t.mem_write_ports <= 0 then
    fail "memory ports must be positive"
  else if t.misfetch_penalty < 0 || t.misspeculation_penalty < 0 then
    fail "penalties must be non-negative"
  else if
    t.organization = Optimized
    && t.mem_read_ports + t.mem_write_ports > t.width - 1
  then
    fail
      "the optimized organization supports at most N-1 memory ports \
       (got %d read + %d write for width %d)"
      t.mem_read_ports t.mem_write_ports t.width
  else Ok t

let minor_cycle_latency t =
  minor_cycles_per_major t.organization ~width:t.width

let pp ppf t =
  Format.fprintf ppf
    "@[<v>%d-wide OoO, IFQ %d, ROB %d, LSQ %d@,\
     FUs: %d ALU/%d, %d MUL/%d, %d DIV/%d@,\
     memory ports: %d read, %d write@,\
     penalties: misfetch %d, misspeculation %d@,\
     organization: %s (L = %d minor cycles)@]"
    t.width t.ifq_entries t.rob_entries t.lsq_entries t.alu_count
    t.alu_latency t.mult_count t.mult_latency t.div_count t.div_latency
    t.mem_read_ports t.mem_write_ports t.misfetch_penalty
    t.misspeculation_penalty
    (organization_name t.organization)
    (minor_cycle_latency t)
