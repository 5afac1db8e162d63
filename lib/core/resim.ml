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
  | Refused of string

let failure_to_string = function
  | Fault fault -> Resim_trace.Fault.to_string fault
  | Deadlock d -> Format.asprintf "deadlock: %a" Engine.pp_deadlock d
  | Refused reason -> reason

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

exception Refusal of string

(* Step a resumed run back to its checkpoint cycle under the caller's
   watchdog and deadline; [Some] is a replay the deadline cut short (a
   checkpoint of an earlier point of the same run). [run_bounded] looks
   for the trace's end after every step, so it stops one cycle short
   and the last step runs alone: a replay that ends at the checkpoint
   pulls no record past it, and a refused resume has read exactly what
   the replay needed. *)
let replay ?watchdog ?deadline engine (checkpoint : Checkpoint.t) =
  if Int64.compare checkpoint.cycle 0L <= 0 then None
  else
    let bounded =
      Engine.run_bounded ?watchdog ~max_cycles:(Int64.pred checkpoint.cycle)
        ?deadline engine
    in
    match bounded.Engine.stop with
    | Engine.Time_budget -> Some bounded
    | Engine.Cycle_budget ->
        Engine.step engine;
        None
    | Engine.Drained | Engine.Commit_target -> None

(* Why a replayed engine is not the checkpointed run, if it is not. *)
let replay_mismatch engine (checkpoint : Checkpoint.t) =
  if Int64.compare (Engine.cycle engine) checkpoint.cycle <> 0 then
    Some
      (Printf.sprintf
         "trace drains at cycle %Ld, before the checkpoint cycle %Ld — \
          wrong trace for this checkpoint"
         (Engine.cycle engine) checkpoint.cycle)
  else if Engine.cursor engine <> checkpoint.cursor then
    Some
      (Printf.sprintf
         "cursor mismatch at checkpoint cycle: replayed %d, recorded %d — \
          wrong trace or configuration"
         (Engine.cursor engine) checkpoint.cursor)
  else if Stats.to_assoc (Engine.stats engine) <> checkpoint.counters then
    Some "statistics mismatch at checkpoint cycle — wrong trace or configuration"
  else None

let run ?(config = Config.reference) ?watchdog ?max_cycles ?deadline
    ?instrument ?driver ?resume trace =
  (* A checkpoint from another build or configuration is refused
     (RSM-K007) before the trace is touched: that beats a replay that
     runs to a baffling statistics mismatch. *)
  match
    Option.map (Checkpoint.verify_engine ~expected:(engine_identity config))
      resume
  with
  | Some (Error error) -> Error (Refused (Checkpoint.error_to_string error))
  | Some (Ok ()) | None -> (
      let source, describe_trace = open_trace trace in
      match
        let engine = Engine.create_from_source ~config source in
        (* Observability hook: attach sinks/probes to the freshly
           created engine before the first cycle runs. *)
        (match instrument with Some f -> f engine | None -> ());
        let proceed () =
          match driver with
          | Some drive -> drive engine
          | None -> Engine.run_bounded ?watchdog ?max_cycles ?deadline engine
        in
        let bounded =
          match resume with
          | None -> proceed ()
          | Some checkpoint -> (
              (* The engine is deterministic: the replayed prefix is the
                 checkpointed run, or the checkpoint is not this run's. *)
              match replay ?watchdog ?deadline engine checkpoint with
              | Some truncated -> truncated
              | None -> (
                  match replay_mismatch engine checkpoint with
                  | Some reason -> raise (Refusal reason)
                  | None -> proceed ()))
        in
        { outcome =
            outcome_of ~config engine bounded.Engine.final (describe_trace ());
          stop = bounded.Engine.stop;
          resume =
            (* Stamp truncation handles with the engine identity so a
               client holding one cannot replay it on a different build
               or configuration (RSM-K007 at resume). *)
            Option.map
              (Checkpoint.with_engine (engine_identity config))
              bounded.Engine.resume }
      with
      | robust -> Ok robust
      | exception Refusal reason -> Error (Refused reason)
      | exception Resim_trace.Fault.Trace_fault fault -> Error (Fault fault)
      | exception Engine.Deadlock deadlock -> Error (Deadlock deadlock))

let outcome_exn = function
  | Ok robust -> robust.outcome
  | Error (Fault fault) -> raise (Resim_trace.Fault.Trace_fault fault)
  | Error (Deadlock deadlock) -> raise (Engine.Deadlock deadlock)
  | Error (Refused reason) -> failwith reason

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
