let version = "1.0.0"

(* Identity of "this engine build running this configuration" — what a
   checkpoint or cache entry is only valid against. The version pins
   the build; the config hash pins every simulated-machine parameter. *)
let engine_identity config = version ^ "/" ^ Hash.config config

type outcome = {
  config : Config.t;
  stats : Stats.t;
  trace_summary : Resim_trace.Summary.t;
  bits_per_instruction : float;
  icache_stats : Resim_cache.Cache.stats;
  dcache_stats : Resim_cache.Cache.stats;
}

let outcome_of ~config engine stats (trace_summary, bits_per_instruction) =
  { config;
    stats;
    trace_summary;
    bits_per_instruction;
    icache_stats = Resim_cache.Cache.stats (Engine.icache engine);
    dcache_stats = Resim_cache.Cache.stats (Engine.dcache engine) }

(* One generator for every run that derives its trace from the engine
   configuration: the same predictor, so generator and engine model the
   same front end, and tagged blocks bounded by ROB + IFQ entries. *)
let generator_config (config : Config.t) =
  { Resim_tracegen.Generator.predictor = config.predictor;
    wrong_path_limit = config.rob_entries + config.ifq_entries;
    max_instructions = 20_000_000 }

type trace =
  | Records of Resim_trace.Record.t array
  | Pull of (unit -> Resim_trace.Record.t option)

type failure =
  | Fault of Resim_trace.Fault.t
  | Deadlock of Engine.deadlock

let failure_to_string = function
  | Fault fault -> Resim_trace.Fault.to_string fault
  | Deadlock d -> Format.asprintf "deadlock: %a" Engine.pp_deadlock d

type robust = {
  outcome : outcome;
  stop : Engine.stop;
  resume : Checkpoint.t option;  (* Some whenever the run was truncated *)
}

(* The engine's source for a trace, and its summary and Fixed-format
   bits per instruction (Table 3) once the run is over: an array is
   summarized then; a pull stream counts its records as they go past. *)
let open_trace trace =
  match trace with
  | Records records ->
      ( Source.of_array records,
        fun () ->
          ( Resim_trace.Summary.of_records records,
            Resim_trace.Codec.bits_per_instruction records ) )
  | Pull pull ->
      let summary = Resim_trace.Summary.counter () in
      let bits = Resim_trace.Codec.Bit_count.create () in
      let counted () =
        match pull () with
        | Some record as next ->
            Resim_trace.Summary.count summary record;
            Resim_trace.Codec.Bit_count.add bits record;
            next
        | None -> None
      in
      ( Source.of_pull counted,
        fun () ->
          ( Resim_trace.Summary.result summary,
            Resim_trace.Codec.Bit_count.per_instruction bits ) )

let run ?(config = Config.reference) ?watchdog ?max_cycles ?deadline
    ?instrument ?driver trace =
  let source, describe_trace = open_trace trace in
  match
    let engine = Engine.create_from_source ~config source in
    (* Observability hook: attach sinks/probes to the freshly created
       engine before the first cycle runs. *)
    (match instrument with Some f -> f engine | None -> ());
    let bounded =
      match driver with
      | Some drive -> drive engine
      | None -> Engine.run_bounded ?watchdog ?max_cycles ?deadline engine
    in
    { outcome =
        outcome_of ~config engine bounded.Engine.final (describe_trace ());
      stop = bounded.Engine.stop;
      resume =
        (* Stamp truncation handles with the engine identity so a
           client holding one cannot replay it on a different build or
           configuration (RSM-K007 at resume). *)
        Option.map
          (Checkpoint.with_engine (engine_identity config))
          bounded.Engine.resume }
  with
  | robust -> Ok robust
  | exception Resim_trace.Fault.Trace_fault fault -> Error (Fault fault)
  | exception Engine.Deadlock deadlock -> Error (Deadlock deadlock)

let outcome_exn = function
  | Ok robust -> robust.outcome
  | Error (Fault fault) -> raise (Resim_trace.Fault.Trace_fault fault)
  | Error (Deadlock deadlock) -> raise (Engine.Deadlock deadlock)

let resume_trace ?(config = Config.reference) ~checkpoint trace =
  let target = checkpoint.Checkpoint.cycle in
  (* Identity check first (RSM-K007): refusing a foreign-build handle
     outright beats letting the replay run to a baffling statistics
     mismatch. *)
  match
    Checkpoint.verify_engine ~expected:(engine_identity config) checkpoint
  with
  | Error error -> Error (Checkpoint.error_to_string error)
  | Ok () ->
  match
    let source, describe_trace = open_trace trace in
    let engine = Engine.create_from_source ~config source in
    while
      Int64.compare (Engine.cycle engine) target < 0
      && not (Engine.finished engine)
    do
      Engine.step engine
    done;
    if Int64.compare (Engine.cycle engine) target <> 0 then
      Error
        (Printf.sprintf
           "trace drains at cycle %Ld, before the checkpoint cycle %Ld — \
            wrong trace for this checkpoint"
           (Engine.cycle engine) target)
    else if Engine.cursor engine <> checkpoint.Checkpoint.cursor then
      Error
        (Printf.sprintf
           "cursor mismatch at checkpoint cycle: replayed %d, recorded %d — \
            wrong trace or configuration"
           (Engine.cursor engine) checkpoint.Checkpoint.cursor)
    else if
      Stats.to_assoc (Engine.stats engine) <> checkpoint.Checkpoint.counters
    then Error "statistics mismatch at checkpoint cycle — wrong trace or configuration"
    else begin
      (* Describe the trace only once the run has pulled all of it. *)
      let final = Engine.run engine in
      Ok (outcome_of ~config engine final (describe_trace ()))
    end
  with
  | result -> result
  | exception Resim_trace.Fault.Trace_fault fault ->
      Error (Resim_trace.Fault.to_string fault)
  | exception Engine.Deadlock deadlock ->
      Error (Format.asprintf "deadlock: %a" Engine.pp_deadlock deadlock)

let simulate_program ?(config = Config.reference) ?generator program =
  let generator = Option.value generator ~default:(generator_config config) in
  let records = Resim_tracegen.Generator.records ~config:generator program in
  outcome_exn (run ~config (Records records))

let mips outcome ~device =
  Resim_fpga.Throughput.mips ~mhz:device.Resim_fpga.Device.minor_cycle_mhz
    ~minor_cycles_per_major:(Config.minor_cycle_latency outcome.config)
    ~instructions:(Stats.get Stats.committed outcome.stats)
    ~major_cycles:(Stats.get Stats.major_cycles outcome.stats)

let mips_with_wrong_path outcome ~device =
  Resim_fpga.Throughput.mips ~mhz:device.Resim_fpga.Device.minor_cycle_mhz
    ~minor_cycles_per_major:(Config.minor_cycle_latency outcome.config)
    ~instructions:(Stats.get Stats.fetched outcome.stats)
    ~major_cycles:(Stats.get Stats.major_cycles outcome.stats)

let trace_bandwidth_mbytes outcome ~device =
  Resim_fpga.Throughput.trace_mbytes_per_second
    ~mips:(mips_with_wrong_path outcome ~device)
    ~bits_per_instruction:outcome.bits_per_instruction

let pp_outcome ppf outcome =
  Format.fprintf ppf "@[<v>configuration:@,  @[<v>%a@]@,trace:@,  @[<v>%a@]@,\
                      engine:@,  @[<v>%a@]@,trace encoding: %.2f bits/instr@]"
    Config.pp outcome.config Resim_trace.Summary.pp outcome.trace_summary
    Stats.pp outcome.stats outcome.bits_per_instruction
