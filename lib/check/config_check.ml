module Config = Resim_core.Config
module Cache = Resim_cache.Cache
module Direction = Resim_bpred.Direction

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let validate (t : Config.t) =
  let out = ref [] in
  let err code subject ?hint fmt =
    Printf.ksprintf
      (fun message ->
        out := Diagnostic.error ~code ~subject ?hint message :: !out)
      fmt
  in
  let warn code subject ~hint fmt =
    Printf.ksprintf
      (fun message ->
        out := Diagnostic.warning ~code ~subject ~hint message :: !out)
      fmt
  in
  (* Window shape: width, queues, ROB, LSQ. *)
  if t.width < 1 then
    err "RSM-C001" "width" ~hint:"use a width of at least 1"
      "issue width must be positive (got %d)" t.width;
  if t.width >= 1 && t.ifq_entries < t.width then
    err "RSM-C002" "ifq_entries"
      ~hint:"grow the IFQ to at least one fetch group"
      "IFQ of %d cannot hold one %d-wide fetch group" t.ifq_entries t.width;
  if t.decouple_entries < 1 then
    err "RSM-C003" "decouple_entries"
      "decouple buffer must be non-empty (got %d)" t.decouple_entries
  else if t.width >= 1 && t.decouple_entries < t.width then
    warn "RSM-C004" "decouple_entries"
      ~hint:"size the decouple buffer to at least the issue width"
      "decouple buffer of %d throttles a %d-wide front end"
      t.decouple_entries t.width;
  if t.width >= 1 && t.rob_entries < t.width then
    err "RSM-C005" "rob_entries"
      ~hint:"the ROB must accept a full dispatch group"
      "reorder buffer of %d is smaller than the issue width %d"
      t.rob_entries t.width;
  if t.lsq_entries < 1 then
    err "RSM-C006" "lsq_entries" "LSQ must be non-empty (got %d)"
      t.lsq_entries
  else begin
    if t.lsq_entries > t.rob_entries then
      err "RSM-C007" "lsq_entries"
        ~hint:"shrink the LSQ or grow the ROB"
        "LSQ of %d exceeds the ROB of %d: every memory operation \
         occupies both, so the extra LSQ entries are unreachable"
        t.lsq_entries t.rob_entries;
    if t.width >= 1 && t.lsq_entries < t.width then
      warn "RSM-C008" "lsq_entries"
        ~hint:"size the LSQ to at least the issue width"
        "LSQ of %d cannot absorb a %d-wide all-memory dispatch group"
        t.lsq_entries t.width
  end;
  (* Functional units: positive counts and latencies; the divider is
     not pipelined (§V.C: one 10-cycle divider), so a divide latency at
     or below the pipelined multiplier's is almost certainly a
     misconfiguration. *)
  let fu_count subject count =
    if count < 1 then
      err "RSM-C009" subject
        ~hint:"every operation class needs at least one unit"
        "%s must be positive (got %d): instructions of that class \
         could never issue"
        subject count
  in
  fu_count "alu_count" t.alu_count;
  fu_count "mult_count" t.mult_count;
  fu_count "div_count" t.div_count;
  let fu_latency subject latency =
    if latency < 1 then
      err "RSM-C010" subject
        ~hint:"use a latency of at least one major cycle"
        "%s must be positive (got %d): a zero-latency unit would \
         complete before it issues"
        subject latency
  in
  fu_latency "alu_latency" t.alu_latency;
  fu_latency "mult_latency" t.mult_latency;
  fu_latency "div_latency" t.div_latency;
  if t.div_latency >= 1 && t.mult_latency >= 1
     && t.div_latency <= t.mult_latency
  then
    warn "RSM-C011" "div_latency"
      ~hint:"the reference divider is 10 cycles against a 3-cycle \
             multiplier"
      "divider is not pipelined, yet its latency (%d) does not exceed \
       the pipelined multiplier's (%d)"
      t.div_latency t.mult_latency;
  (* Memory ports, and §IV.B's Optimized-organization port budget. *)
  if t.mem_read_ports < 1 || t.mem_write_ports < 1 then
    err "RSM-C012" "mem_ports"
      "memory ports must be positive (got %d read, %d write)"
      t.mem_read_ports t.mem_write_ports
  else if
    Config.is_optimized t.organization
    && t.mem_read_ports + t.mem_write_ports > t.width - 1
  then
    err "RSM-C013" "mem_read_ports"
      ~hint:"reduce the ports or use the improved organization"
      "the optimized organization supports at most N-1 memory ports \
       (§IV.B); got %d read + %d write for width %d"
      t.mem_read_ports t.mem_write_ports t.width;
  (* Penalties: whole major cycles, each worth L minor cycles. *)
  if t.misfetch_penalty < 0 || t.misspeculation_penalty < 0 then
    err "RSM-C014" "penalties"
      "penalties must be non-negative (got misfetch %d, misspeculation \
       %d)"
      t.misfetch_penalty t.misspeculation_penalty
  else begin
    if t.misspeculation_penalty < t.misfetch_penalty then
      warn "RSM-C015" "misspeculation_penalty"
        ~hint:"a full squash should cost at least a misfetch"
        "misspeculation penalty (%d) is below the misfetch penalty (%d)"
        t.misspeculation_penalty t.misfetch_penalty;
    if
      t.misspeculation_penalty = 0
      && t.predictor.direction <> Direction.Perfect
    then
      warn "RSM-C016" "misspeculation_penalty"
        ~hint:"use a positive penalty, or the perfect predictor"
        "zero misspeculation penalty with a real predictor makes every \
         misprediction free in major-cycle terms (L = %d minor cycles \
         per major cycle)"
        (Config.minor_cycles_per_major t.organization
           ~width:(max 1 t.width))
  end;
  (* Cache geometries: the hardware indexes sets and offsets with bit
     slices, so capacity, block size and set count must be powers of
     two and the associativity must tile the capacity exactly. *)
  let cache subject = function
    | Cache.Perfect -> ()
    | Cache.Set_associative { size_bytes; associativity; block_bytes } ->
        let geometry_error fmt = err "RSM-C017" subject fmt in
        if size_bytes < 1 || block_bytes < 1 || associativity < 1 then
          geometry_error
            "cache geometry fields must be positive (size %d, assoc %d, \
             block %d)"
            size_bytes associativity block_bytes
        else if not (is_power_of_two block_bytes) then
          geometry_error "block size %d is not a power of two" block_bytes
        else if size_bytes mod (block_bytes * associativity) <> 0 then
          geometry_error
            "capacity %d is not a whole number of %d-way sets of %d-byte \
             blocks"
            size_bytes associativity block_bytes
        else if not (is_power_of_two (size_bytes / (block_bytes * associativity)))
        then
          geometry_error
            "set count %d (size %d / assoc %d / block %d) is not a power \
             of two"
            (size_bytes / (block_bytes * associativity))
            size_bytes associativity block_bytes
  in
  cache "icache" t.icache;
  cache "dcache" t.dcache;
  let timing subject (timing : Cache.timing) =
    if timing.hit_latency < 1 || timing.miss_latency < 0 then
      err "RSM-C018" subject
        "cache timing must have a positive hit latency and non-negative \
         miss latency (got hit %d, miss %d)"
        timing.hit_latency timing.miss_latency
  in
  timing "cache_timing" t.cache_timing;
  (match t.l2cache with
  | None -> ()
  | Some l2 ->
      cache "l2cache" l2;
      timing "l2_timing" t.l2_timing);
  (* Predictor tables: indexed by bit slices, so powers of two. *)
  let table subject entries =
    if not (is_power_of_two entries) then
      err "RSM-C019" subject
        ~hint:"predictor tables are indexed by PC/history bit slices"
        "%s of %d is not a power of two" subject entries
  in
  (match t.predictor.direction with
  | Direction.Perfect | Direction.Static_taken | Direction.Static_not_taken
    ->
      ()
  | Direction.Bimodal { table_entries } ->
      table "bimodal table_entries" table_entries
  | Direction.Two_level { bht_entries; history_bits; pht_entries } ->
      table "two-level bht_entries" bht_entries;
      table "two-level pht_entries" pht_entries;
      if history_bits < 1 || history_bits > 30 then
        err "RSM-C019" "history_bits"
          "history register length %d is outside 1..30" history_bits
  | Direction.Gshare { history_bits; pht_entries } ->
      table "gshare pht_entries" pht_entries;
      if history_bits < 1 || history_bits > 30 then
        err "RSM-C019" "history_bits"
          "history register length %d is outside 1..30" history_bits);
  let btb = t.predictor.btb in
  if
    btb.entries < 1 || btb.associativity < 1
    || btb.entries mod btb.associativity <> 0
    || not (is_power_of_two (btb.entries / btb.associativity))
  then
    err "RSM-C020" "btb"
      ~hint:"entries must tile into a power-of-two number of sets"
      "BTB geometry is not realizable (entries %d, associativity %d)"
      btb.entries btb.associativity;
  if t.predictor.ras_depth < 0 then
    err "RSM-C021" "ras_depth" "RAS depth must be non-negative (got %d)"
      t.predictor.ras_depth;
  let found = List.rev !out in
  Diagnostic.errors found @ Diagnostic.warnings found

let errors t = Diagnostic.errors (validate t)

let error_summary t =
  match errors t with
  | [] -> None
  | errors ->
      Some
        (String.concat "; "
           (List.map
              (fun (d : Diagnostic.t) ->
                Printf.sprintf "%s %s: %s" d.code d.subject d.message)
              errors))
