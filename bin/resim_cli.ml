(* resim — command-line front end.

   Subcommands:
     tracegen   generate a binary trace from a built-in kernel
     simulate   run the timing engine on a trace file or kernel
     area       evaluate the FPGA area model
     schedule   render a minor-cycle schedule (Figures 2-4)
     table      regenerate one of the paper's tables
     sweep      run the ablation grid as a domain-parallel sweep
     bench      measure engine host throughput (kernel x configuration)
     lint       statically lint encoded trace files or pipetrace JSONL
     profile    attribute host time/allocation to engine phases
     workloads  list the built-in kernels *)

open Cmdliner
module Check = Resim_check.Check

(* Every subcommand that builds a configuration validates it here
   first: warnings print and the run proceeds; errors print with their
   diagnostic codes and failing fields, and the command exits 2 before
   any simulation starts. *)
let ensure_valid_config ~context config =
  let diagnostics = Check.Config.validate config in
  if diagnostics <> [] then
    Format.eprintf "%s: configuration is %s@.%a@." context
      (Check.Diagnostic.summary diagnostics)
      Check.Diagnostic.pp_list diagnostics;
  if Check.Diagnostic.has_errors diagnostics then exit 2

(* Every file the CLI writes goes through [writing]: a host I/O failure
   on the output path (a missing directory, a permission, a full disk)
   prints [<path>: <reason>] on stderr and exits 2, the usage-error
   code an unreadable input gets, instead of escaping as an uncaught
   [Sys_error]. [write] is {!write_file} or a library writer that opens
   the path itself. *)
let write_failed path reason =
  Format.eprintf "%s: %s@." path reason;
  exit 2

let writing path write =
  match write () with
  | result -> result
  | exception Sys_error reason -> write_failed path reason

(* The explicit flush surfaces a short write (a full disk) as the
   [Sys_error] [writing] reports; [with_open_bin] then closes without
   raising, which after the flush loses nothing. *)
let write_file path contents =
  writing path (fun () ->
      Out_channel.with_open_bin path (fun channel ->
          output_string channel contents;
          flush channel))

let kernel_conv =
  let parse name =
    match Resim_workloads.Workload.find name with
    | workload -> Ok workload
    | exception Not_found ->
        Error
          (`Msg
             (Printf.sprintf "unknown kernel %S (try: %s)" name
                (String.concat ", " Resim_workloads.Workload.names)))
  in
  let print ppf workload =
    Format.pp_print_string ppf (Resim_workloads.Workload.name_of workload)
  in
  Arg.conv (parse, print)

let kernel_arg =
  Arg.(
    value
    & opt kernel_conv (Resim_workloads.Workload.find "gzip")
    & info [ "k"; "kernel" ] ~docv:"KERNEL"
        ~doc:"Built-in kernel (gzip, bzip2, parser, vortex, vpr).")

let scale_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "s"; "scale" ] ~docv:"N" ~doc:"Kernel scale (input size).")

let organization_conv =
  let parse = function
    | "simple" -> Ok Resim_core.Config.Simple
    | "improved" -> Ok Resim_core.Config.Improved
    | "optimized" -> Ok Resim_core.Config.Optimized
    | other ->
        Error
          (`Msg
             (Printf.sprintf
                "unknown organization %S (simple|improved|optimized)" other))
  in
  let print ppf organization =
    Format.pp_print_string ppf
      (Resim_core.Config.organization_name organization)
  in
  Arg.conv (parse, print)

let width_arg =
  Arg.(
    value & opt int 4
    & info [ "w"; "width" ] ~docv:"N" ~doc:"Issue width of the processor.")

let program_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "p"; "program" ] ~docv:"FILE.s"
        ~doc:"Assemble and use a textual assembly file instead of a \
              built-in kernel.")

let program_of ?source_file workload scale =
  match source_file with
  | Some path -> Resim_isa.Parser.parse_file path
  | None -> (
      match scale with
      | Some scale -> Resim_workloads.Workload.program_of workload ~scale ()
      | None -> Resim_workloads.Workload.program_of workload ())

(* --- tracegen ----------------------------------------------------- *)

(* Streamed generation: the kernel trace cycles through a constant-
   memory Encoder onto stdout until --limit records went out or the
   reader hangs up — the producer half of the >RAM streaming pipeline
   (DESIGN.md §17). *)
let tracegen_stream ~format ~limit records =
  if Array.length records = 0 then begin
    Format.eprintf "tracegen: kernel produced no records@.";
    exit 2
  end;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  set_binary_mode_out stdout true;
  let encoder = Resim_trace.Codec.Encoder.to_channel ~format stdout in
  let quota () =
    match limit with
    | Some limit -> Resim_trace.Codec.Encoder.pushed encoder < limit
    | None -> true
  in
  (try
     while quota () do
       Array.iter
         (fun record ->
           if quota () then Resim_trace.Codec.Encoder.push encoder record)
         records
     done;
     Resim_trace.Codec.Encoder.close encoder
   with Sys_error _ ->
     (* EPIPE: the reader closed the pipe — the normal way an
        unbounded stream ends. *)
     ());
  Format.eprintf "streamed %d record(s)@."
    (Resim_trace.Codec.Encoder.pushed encoder)

let tracegen workload scale source_file output compact stream limit
    records_per_shard =
  let program = program_of ?source_file workload scale in
  let generated = Resim_tracegen.Generator.run program in
  let format =
    if compact then Resim_trace.Codec.Compact else Resim_trace.Codec.Fixed
  in
  if stream then tracegen_stream ~format ~limit generated.records
  else
    match records_per_shard with
    | Some per_shard when per_shard > 0 ->
        let stem =
          if Filename.check_suffix output Resim_trace.Codec.Shard.extension
          then
            Filename.chop_suffix output Resim_trace.Codec.Shard.extension
          else output
        in
        let shards =
          writing output (fun () ->
              Resim_trace.Codec.Shard.write ~format
                ~records_per_shard:per_shard ~stem generated.records)
        in
        Format.printf
          "wrote %d shard(s) %s .. %s: %d records (%d correct, %d \
           wrong-path)@."
          (List.length shards) (List.hd shards)
          (List.nth shards (List.length shards - 1))
          (Array.length generated.records)
          generated.correct_path generated.wrong_path
    | Some _ ->
        Format.eprintf "tracegen: --records-per-shard must be positive@.";
        exit 2
    | None ->
        write_file output
          (Resim_trace.Codec.encode ~format generated.records);
        Format.printf
          "wrote %s: %d records (%d correct, %d wrong-path), %.2f \
           bits/instr@."
          output
          (Array.length generated.records)
          generated.correct_path generated.wrong_path
          (Resim_trace.Codec.bits_per_instruction ~format generated.records)

let tracegen_cmd =
  let output =
    Arg.(
      value & opt string "kernel.trace"
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output trace file.")
  in
  let compact =
    Arg.(
      value & flag
      & info [ "compact" ] ~doc:"Use the delta-compressed encoding.")
  in
  let stream =
    Arg.(
      value & flag
      & info [ "stream" ]
          ~doc:"Write a streamed trace (header count $(b,-1)) to stdout \
                in constant memory, cycling the kernel trace until \
                $(b,--limit) records went out — or forever, until the \
                reading end of the pipe closes. Pair with $(b,resim \
                simulate -t -) for traces larger than RAM.")
  in
  let limit =
    Arg.(
      value
      & opt (some int) None
      & info [ "limit" ] ~docv:"N"
          ~doc:"Stop a $(b,--stream) run after $(docv) records \
                (unbounded without it).")
  in
  let records_per_shard =
    Arg.(
      value
      & opt (some int) None
      & info [ "records-per-shard" ] ~docv:"N"
          ~doc:"Split the trace into $(b,STEM.0000.rtr), \
                $(b,STEM.0001.rtr), … shards of at most $(docv) records \
                each; any shard name or the bare stem opens the whole \
                set in $(b,simulate)/$(b,lint).")
  in
  Cmd.v
    (Cmd.info "tracegen" ~doc:"Generate a binary trace from a kernel")
    Term.(
      const tracegen $ kernel_arg $ scale_arg $ program_arg $ output
      $ compact $ stream $ limit $ records_per_shard)

(* --- faultgen ------------------------------------------------------ *)

module Fault_inject = Resim_trace.Fault_inject

let severity_name = function
  | `Error -> "error"
  | `Warning -> "warning"
  | `Varies -> "varies"

let faultgen workload scale source_file fault_name seed output compact
    list_classes =
  if list_classes then
    (* Machine-readable: name, expected RSM code (- when it varies),
       severity — scripts/faultsmoke.sh iterates over these lines. *)
    List.iter
      (fun fault ->
        Format.printf "%-18s %-10s %-8s %s@."
          (Fault_inject.name fault)
          (match Fault_inject.expected_code fault with
          | Some code -> code
          | None -> "-")
          (severity_name (Fault_inject.severity fault))
          (Fault_inject.describe fault))
      Fault_inject.all
  else
    match fault_name with
    | None ->
        Format.eprintf
          "faultgen: --fault CLASS is required (see --list)@.";
        exit 2
    | Some name -> (
        match Fault_inject.of_name name with
        | None ->
            Format.eprintf
              "unknown fault class %S (resim faultgen --list)@." name;
            exit 2
        | Some fault ->
            let program = program_of ?source_file workload scale in
            let generated = Resim_tracegen.Generator.run program in
            let format =
              if compact then Resim_trace.Codec.Compact
              else Resim_trace.Codec.Fixed
            in
            let data =
              Fault_inject.apply ~seed ~format fault generated.records
            in
            write_file output data;
            Format.printf
              "wrote %s: %d clean records + %s (seed %d, expect %s, \
               severity %s)@."
              output
              (Array.length generated.records)
              (Fault_inject.describe fault)
              seed
              (match Fault_inject.expected_code fault with
              | Some code -> code
              | None -> "varies")
              (severity_name (Fault_inject.severity fault)))

let faultgen_cmd =
  let fault =
    Arg.(
      value
      & opt (some string) None
      & info [ "fault" ] ~docv:"CLASS"
          ~doc:"Corruption class to inject (kebab-case; see --list).")
  in
  let seed =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"N"
          ~doc:"Deterministic injection seed; (class, seed) replays the \
                same corruption.")
  in
  let output =
    Arg.(
      value & opt string "fault.trace"
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output trace file.")
  in
  let compact =
    Arg.(
      value & flag
      & info [ "compact" ] ~doc:"Use the delta-compressed encoding.")
  in
  let list_classes =
    Arg.(
      value & flag
      & info [ "list" ]
          ~doc:"List the corruption classes (name, expected RSM code, \
                severity, description) and exit.")
  in
  Cmd.v
    (Cmd.info "faultgen"
       ~doc:"Generate a deliberately corrupted trace for robustness \
             testing (each class maps to one RSM-T diagnostic)")
    Term.(
      const faultgen $ kernel_arg $ scale_arg $ program_arg $ fault $ seed
      $ output $ compact $ list_classes)

(* --- simulate ------------------------------------------------------ *)

(* Exit codes: 0 clean, 1 generic failure (lint errors, malformed
   foreign trace lines), 2 invalid configuration or usage (including a
   missing or unreadable trace file, RSM-T009), 3 structured trace
   fault / deadlock (the diagnostic names the RSM code and record
   offset). *)
let fault_exit = 3

module Adapter = Resim_trace.Adapter
module Stream = Resim_trace.Stream

let adapter_format_conv =
  let parse name =
    match Adapter.format_of_string name with
    | Some format -> Ok format
    | None ->
        Error
          (`Msg
             (Printf.sprintf "unknown trace format %S (text|riscv)" name))
  in
  let print ppf format =
    Format.pp_print_string ppf (Adapter.format_to_string format)
  in
  Arg.conv (parse, print)

let adapter_format_arg =
  Arg.(
    value
    & opt (some adapter_format_conv) None
    & info [ "format" ] ~docv:"FMT"
        ~doc:"The trace is a foreign line-oriented text trace, not an \
              encoded RSTR stream: $(b,text) ($(i,PC op dst src1 src2) \
              per line) or $(b,riscv) ($(i,PC INSN [mem ADDR]), \
              uncompressed RV32/RV64). The adapter converts it to \
              tagged records, synthesizing wrong-path blocks from our \
              own branch predictor; malformed lines are RSM-A \
              diagnostics with file:line:col (DESIGN.md §17).")

(* The hint a decode fault prints, unless the run already salvages. *)
let degraded_hint () =
  Format.eprintf "(simulate --degraded resync skips damaged records)@."

let report_open_error ?(salvaging = false) path
    (error : Resim_trace.Codec.error) =
  Format.eprintf "%s: %s@." path
    (Resim_trace.Codec.error_to_string error);
  (* Host-level I/O problems are usage errors (exit 2); malformed
     bytes are trace faults (exit 3). *)
  if String.equal error.error_code "RSM-T009" then exit 2
  else begin
    if not salvaging then degraded_hint ();
    exit fault_exit
  end

let report_adapter_stats ~file adapter =
  let stats = Adapter.stats adapter in
  Format.printf
    "adapted %s: %d line(s) -> %d instruction(s) + %d wrong-path \
     record(s) in synthesized blocks (%d conditional mispredict(s))@."
    file stats.Adapter.lines stats.instructions stats.wrong_path
    stats.mispredicted

(* Every trace file [simulate -t] and [profile -t] read reaches the
   engine as one pull stream, never as an array: an encoded file or
   the whole shard set it belongs to, [-] for stdin, or a foreign text
   trace ([format]). Returns the stream and its cleanup, which closes
   what the stream owns and, for an adapted trace that parsed, prints
   the adaptation stats. With [salvage] an encoded trace is read degraded:
   each damaged record goes to [salvage] and the stream resumes past
   it. A missing or unreadable path exits 2 (RSM-T009) and a malformed
   header exits 3; later faults surface mid-run. *)
let open_trace ?format ?salvage path =
  let stdin_path = String.equal path "-" in
  let file = if stdin_path then "<stdin>" else path in
  match format with
  | Some format ->
      let ic, owned =
        if stdin_path then (stdin, false)
        else
          match open_in_bin path with
          | ic -> (ic, true)
          | exception Sys_error reason ->
              Format.eprintf "%s: [RSM-T009] %s@." path reason;
              exit 2
      in
      let adapter = Adapter.of_channel ~format ~file ic in
      (* A malformed line ends the run with its diagnostic alone. *)
      let malformed = ref false in
      let pull () =
        match Adapter.pull_exn adapter () with
        | next -> next
        | exception (Resim_trace.Fault.Trace_fault _ as fault) ->
            malformed := true;
            raise fault
      in
      ( Resim_core.Resim.Pull pull,
        fun () ->
          if not !malformed then report_adapter_stats ~file adapter;
          if owned then close_in_noerr ic )
  | None ->
      let salvaging = Option.is_some salvage in
      let stream =
        if stdin_path then begin
          set_binary_mode_in stdin true;
          match Resim_trace.Codec.Cursor.of_channel_result stdin with
          | Error error -> report_open_error ~salvaging file error
          | Ok cursor -> Stream.of_cursor ~source:file ?salvage cursor
        end
        else
          match Stream.open_path ?salvage path with
          | Error error -> report_open_error ~salvaging path error
          | Ok stream -> stream
      in
      (Resim_core.Resim.Pull (fun () -> Stream.next stream),
       fun () -> Stream.close stream)

(* A failed run's diagnostic and exit status (see [fault_exit]). A
   malformed foreign line is a user-input problem: its RSM-A fault
   carries the adapter's [file:line:col] line, printed alone, exit 1. A
   host read error mid-stream is RSM-T009, exit 2. Everything else is a
   trace fault or deadlock, exit 3. *)
let report_failure ~command ?(salvaging = false) failure =
  match failure with
  | Resim_core.Resim.Fault { Resim_trace.Fault.code; context; _ }
    when String.starts_with ~prefix:"RSM-A" code ->
      Format.eprintf "%s@." context;
      exit 1
  | failure ->
      Format.eprintf "%s: %s@." command
        (Resim_core.Resim.failure_to_string failure);
      (match failure with
      | Resim_core.Resim.Fault { Resim_trace.Fault.code = "RSM-T009"; _ } ->
          exit 2
      | Resim_core.Resim.Fault
          { Resim_trace.Fault.code = "RSM-T002" | "RSM-T003"; _ }
        when not salvaging ->
          degraded_hint ()
      | Resim_core.Resim.Fault _ | Resim_core.Resim.Deadlock _ -> ());
      exit fault_exit

(* Mirror of [Sample.splice_metrics]: inject the engine identity into
   the stats JSON object, so every metrics document says which engine
   implementation (the closure family and its variant, DESIGN.md §14)
   produced it. *)
let splice_engine_identity ~variant stats_json =
  let n = ref (String.length stats_json) in
  while
    !n > 0
    &&
    match stats_json.[!n - 1] with
    | ' ' | '\t' | '\n' | '\r' -> true
    | _ -> false
  do
    decr n
  done;
  if !n = 0 || stats_json.[!n - 1] <> '}' then
    invalid_arg "splice_engine_identity: not a JSON object";
  String.sub stats_json 0 (!n - 1)
  ^ Printf.sprintf ",\n  \"specialized\": %b,\n  \"variant\": %s\n}\n"
      (match variant with Some _ -> true | None -> false)
      (match variant with
      | Some name -> Resim_core.Json.quote name
      | None -> "null")

let simulate workload scale source_file trace_file trace_format _stream
    perfect_bp caches max_cycles timeout checkpoint_out resume_file
    degraded pipetrace_out waterfall_window metrics_out sample =
  let sample_spec =
    match sample with
    | None -> None
    | Some raw -> (
        match Resim_sample.Sample.spec_of_string raw with
        | Ok spec -> Some spec
        | Error message ->
            Format.eprintf "--sample %s@." message;
            exit 2)
  in
  if sample_spec <> None && resume_file <> None then begin
    Format.eprintf
      "--sample does not combine with --resume (resume replays the full \
       detailed run)@.";
    exit 2
  end;
  let degraded_resync =
    match degraded with
    | None -> false
    | Some "resync" -> true
    | Some other ->
        Format.eprintf "unknown --degraded mode %S (supported: resync)@."
          other;
        exit 2
  in
  if trace_format <> None && trace_file = None then begin
    Format.eprintf "--format requires a trace source (--trace FILE or -)@.";
    exit 2
  end;
  if degraded_resync && trace_format <> None then begin
    Format.eprintf
      "--degraded applies to encoded traces only (no --format)@.";
    exit 2
  end;
  (* Faults a degraded run skipped, newest first. *)
  let salvaged = ref [] in
  let salvage =
    if degraded_resync then Some (fun fault -> salvaged := fault :: !salvaged)
    else None
  in
  (* How the trace reaches the engine: a generated kernel is already an
     array; every trace file is a pull stream, with the cleanup to run
     once the engine is done with it. The cleanup also reports the
     regions a degraded run skipped. *)
  let trace, close_trace =
    match trace_file with
    | None ->
        if degraded_resync then begin
          Format.eprintf
            "--degraded applies to trace files (--trace FILE) only@.";
          exit 2
        end;
        let program = program_of ?source_file workload scale in
        (Resim_core.Resim.Records (Resim_tracegen.Generator.records program),
         ignore)
    | Some path -> open_trace ?format:trace_format ?salvage path
  in
  let cleanup () =
    close_trace ();
    List.iter
      (fun fault ->
        Format.eprintf "degraded: skipped %s@."
          (Resim_trace.Fault.to_string fault))
      (List.rev !salvaged)
  in
  let config =
    let base = Resim_core.Config.reference in
    let base =
      if perfect_bp then
        { base with predictor = Resim_bpred.Predictor.perfect_config }
      else base
    in
    if caches then
      { base with
        icache = Resim_cache.Cache.l1_32k_8way_64b;
        dcache = Resim_cache.Cache.l1_32k_8way_64b }
    else base
  in
  ensure_valid_config ~context:"simulate" config;
  (* Observability sinks (DESIGN.md §11): the JSONL pipetrace streams
     to its file as the run progresses; the waterfall renders on close.
     Both attach through one engine observer, so without them the
     engine keeps its observer-free hot path. *)
  let pipetrace_channel =
    match pipetrace_out with
    | None -> None
    | Some path when String.equal path "-" -> Some (path, stdout)
    | Some path -> Some (path, writing path (fun () -> open_out path))
  in
  let sinks =
    (match pipetrace_channel with
    | Some (path, channel) ->
        (* The pipetrace is written inside the engine, mid-run: a write
           that fails (a full disk) exits 2 naming the path, like any
           other output. One reused line buffer; the channel's own
           buffering batches the writes. *)
        let line = Buffer.create 64 in
        [ Resim_obs.Obs.make_sink
            ~on_close:(fun () -> writing path (fun () -> flush channel))
            (fun ~cycle event ->
              Buffer.clear line;
              Resim_obs.Obs.add_jsonl_event line ~cycle event;
              try Buffer.output_buffer channel line
              with Sys_error reason -> write_failed path reason) ]
    | None -> [])
    @
    match waterfall_window with
    | Some window -> [ Resim_obs.Obs.waterfall ~window stdout ]
    | None -> []
  in
  if sinks <> [] && resume_file <> None then begin
    Format.eprintf
      "--pipetrace/--waterfall do not combine with --resume (the replay \
       prefix would re-emit its events)@.";
    exit 2
  end;
  let close_sinks () =
    Resim_obs.Obs.close sinks;
    match pipetrace_channel with
    | Some (path, channel) when not (String.equal path "-") ->
        writing path (fun () -> close_out channel);
        Format.printf "wrote pipetrace %s@." path
    | Some _ | None -> ()
  in
  let engine_variant = ref None in
  let write_metrics ?report stats =
    match metrics_out with
    | None -> ()
    | Some path ->
        let body =
          if Filename.check_suffix path ".csv" then
            Resim_core.Stats.csv_header () ^ "\n"
            ^ Resim_core.Stats.csv_row stats ^ "\n"
          else
            let stats_json =
              splice_engine_identity ~variant:!engine_variant
                (Resim_core.Stats.to_json stats)
            in
            match report with
            | None -> stats_json
            | Some report ->
                Resim_sample.Sample.splice_metrics ~stats_json report
        in
        if String.equal path "-" then print_string body
        else begin
          write_file path body;
          Format.printf "wrote metrics %s@." path
        end
  in
  let finish ?report outcome =
    if !salvaged <> [] then
      Resim_core.Stats.mark_degraded
        ~faults:(List.length !salvaged)
        outcome.Resim_core.Resim.stats;
    Format.printf "%a@.@." Resim_core.Resim.pp_outcome outcome;
    List.iter
      (fun device ->
        Format.printf "%-10s %.2f MIPS@." device.Resim_fpga.Device.name
          (Resim_core.Resim.mips outcome ~device))
      Resim_fpga.Device.all;
    write_metrics ?report outcome.Resim_core.Resim.stats
  in
  match resume_file with
  | Some path -> (
      match Resim_core.Checkpoint.load path with
      | Error message ->
          Format.eprintf "--resume %s: %s@." path
            (Resim_core.Checkpoint.error_to_string message);
          exit 2
      | Ok checkpoint -> (
          engine_variant := Some (Resim_core.Engine.variant_name config);
          match
            Fun.protect ~finally:cleanup (fun () ->
                Resim_core.Resim.resume_trace ~config ~checkpoint trace)
          with
          | Error message ->
              Format.eprintf "resume failed: %s@." message;
              exit fault_exit
          | Ok outcome ->
              Format.printf "resumed from cycle %Ld (cursor %d)@."
                checkpoint.Resim_core.Checkpoint.cycle
                checkpoint.Resim_core.Checkpoint.cursor;
              finish outcome))
  | None -> (
      let deadline =
        Option.map
          (fun seconds ->
            let limit = Unix.gettimeofday () +. seconds in
            fun () -> Unix.gettimeofday () > limit)
          timeout
      in
      (* Record the engine identity, then attach the observability
         sinks. With no sinks the engine keeps its observer-free hot
         path. *)
      let instrument =
        Some
          (fun engine ->
            engine_variant := Resim_core.Engine.variant engine;
            if sinks <> [] then Resim_obs.Obs.attach engine sinks)
      in
      let fail failure =
        (* Flush the partial pipetrace — the events up to the fault
           are exactly what a post-mortem wants. *)
        close_sinks ();
        report_failure ~command:"simulate" ~salvaging:degraded_resync failure
      in
      let conclude ?report robust =
        close_sinks ();
        (match !engine_variant with
        | Some name -> Format.printf "engine: specialized (%s)@." name
        | None -> ());
        (match robust.Resim_core.Resim.stop with
        | Resim_core.Engine.Drained -> ()
        | Resim_core.Engine.Cycle_budget ->
            Format.printf
              "run truncated by --max-cycles; statistics are partial@."
        | Resim_core.Engine.Time_budget ->
            Format.printf
              "run truncated by --timeout; statistics are partial@."
        | Resim_core.Engine.Commit_target ->
            Format.printf
              "run truncated at commit target; statistics are partial@.");
        (match (robust.Resim_core.Resim.resume, checkpoint_out) with
        | Some checkpoint, Some path ->
            writing path (fun () ->
                Resim_core.Checkpoint.save path checkpoint);
            Format.printf "wrote checkpoint %s (resume with --resume)@."
              path
        | Some _, None | None, None -> ()
        | None, Some _ ->
            Format.printf
              "run completed; no checkpoint needed or written@.");
        (match report with
        | None -> ()
        | Some report ->
            let open Resim_sample.Sample in
            if Float.is_finite report.ci95 then
              Format.printf
                "sampled (%s): %d intervals, IPC %.4f +- %.4f (95%% CI), \
                 %d detailed / %d warmed instructions@."
                (spec_to_string report.spec)
                (List.length report.intervals)
                report.mean_ipc report.ci95 report.detailed_instructions
                report.warmed_instructions
            else
              Format.printf
                "sampled (%s): %d interval(s), IPC %.4f (CI undefined \
                 below two intervals), %d detailed / %d warmed \
                 instructions@."
                (spec_to_string report.spec)
                (List.length report.intervals)
                report.mean_ipc report.detailed_instructions
                report.warmed_instructions);
        finish ?report robust.Resim_core.Resim.outcome
      in
      let result =
        Fun.protect ~finally:cleanup (fun () ->
            match sample_spec with
            | Some spec ->
                Result.map
                  (fun (robust, report) -> (robust, Some report))
                  (Resim_sample.Sample.run ~config ?deadline ?max_cycles
                     ?instrument ~spec trace)
            | None ->
                Result.map
                  (fun robust -> (robust, None))
                  (Resim_core.Resim.run ~config ?max_cycles ?deadline
                     ?instrument trace))
      in
      match result with
      | Error failure -> fail failure
      | Ok (robust, report) -> conclude ?report robust)

let simulate_cmd =
  let trace_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "t"; "trace" ] ~docv:"FILE"
          ~doc:"Simulate a trace file instead of a kernel: an encoded \
                RSTR stream, a shard set (any shard name or the bare \
                stem), a foreign text trace (with $(b,--format)), or \
                $(b,-) for stdin. Every trace streams through the \
                chunked cursor into the engine's record window, so \
                host memory stays O(chunk) however large the file, \
                shard set or pipe ($(b,tracegen --stream |)) — sampled, \
                resumed, budgeted and degraded runs included. A missing \
                or unreadable file exits 2 with an RSM-T009 \
                diagnostic; a malformed record exits 3, a malformed \
                foreign line 1.")
  in
  let stream =
    Arg.(
      value & flag
      & info [ "stream" ]
          ~doc:"Accepted and ignored: every trace streams (see \
                $(b,--trace)).")
  in
  let perfect_bp =
    Arg.(value & flag & info [ "perfect-bp" ] ~doc:"Oracle predictor.")
  in
  let caches =
    Arg.(
      value & flag
      & info [ "caches" ] ~doc:"32KB 8-way L1 caches instead of perfect \
                                memory.")
  in
  let max_cycles =
    Arg.(
      value
      & opt (some int64) None
      & info [ "max-cycles" ] ~docv:"N"
          ~doc:"Stop after $(docv) major cycles with partial statistics \
                and a replay checkpoint (see --checkpoint/--resume).")
  in
  let timeout =
    Arg.(
      value
      & opt (some float) None
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:"Wall-clock budget; the run truncates gracefully with \
                partial statistics when it expires.")
  in
  let checkpoint_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ] ~docv:"FILE"
          ~doc:"Where to write the replay checkpoint when the run is \
                truncated by a budget.")
  in
  let resume_file =
    Arg.(
      value
      & opt (some file) None
      & info [ "resume" ] ~docv:"FILE"
          ~doc:"Resume a truncated run from a checkpoint written by \
                --checkpoint; final statistics are bit-identical to an \
                unbounded run.")
  in
  let degraded =
    Arg.(
      value
      & opt (some string) None
      & info [ "degraded" ] ~docv:"MODE"
          ~doc:"Degraded decode mode for damaged encoded traces \
                (not $(b,--format)); $(docv) must be $(b,resync) — skip \
                to the next decodable record boundary as the trace \
                streams, report each skipped region on stderr after the \
                run and mark the statistics as degraded.")
  in
  let pipetrace =
    Arg.(
      value
      & opt (some string) None
      & info [ "pipetrace" ] ~docv:"FILE"
          ~doc:"Stream the per-cycle pipetrace as JSONL to $(docv) \
                ($(b,-) for stdout); schema-checkable with $(b,resim \
                lint --pipetrace). Format spec in DESIGN.md §11.")
  in
  let waterfall =
    Arg.(
      value
      & opt (some int) None
      & info [ "waterfall" ] ~docv:"N"
          ~doc:"Render a per-instruction waterfall (Gantt view) of the \
                first $(docv) dispatched instructions to stdout after \
                the run.")
  in
  let metrics =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:"Write the final engine statistics — every counter, the \
                stall-cause taxonomy, derived ratios, width histograms \
                — to $(docv) ($(b,-) for stdout): JSON, or a CSV \
                header+row pair when $(docv) ends in $(b,.csv).")
  in
  let sample =
    Arg.(
      value
      & opt (some string) None
      & info [ "sample" ] ~docv:"SPEC"
          ~doc:"Sampled simulation (DESIGN.md §13): $(docv) is \
                $(b,detail:warmup[:seed]) — alternate $(b,detail) \
                committed instructions of full timing with $(b,warmup) \
                instructions of functional warm-up (caches and branch \
                predictor stay warm, no timing), and report mean IPC \
                with a 95% confidence interval over the measured \
                intervals. Deterministic for a fixed seed.")
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Run the ReSim timing engine")
    Term.(
      const simulate $ kernel_arg $ scale_arg $ program_arg $ trace_file
      $ adapter_format_arg $ stream $ perfect_bp $ caches $ max_cycles
      $ timeout $ checkpoint_out $ resume_file $ degraded $ pipetrace
      $ waterfall $ metrics $ sample)

(* --- area ----------------------------------------------------------- *)

let area width rob lsq =
  let params =
    { Resim_fpga.Area.reference_params with
      width;
      ifq_entries = width;
      decouple_entries = width;
      rob_entries = rob;
      lsq_entries = lsq }
  in
  let report = Resim_fpga.Area.estimate params in
  Format.printf "%a@.@." Resim_fpga.Area.pp_report report;
  List.iter
    (fun device ->
      Format.printf "%-10s fits %d instance(s)@."
        device.Resim_fpga.Device.name
        (Resim_fpga.Area.instances_fitting report device))
    Resim_fpga.Device.all

let area_cmd =
  let rob =
    Arg.(value & opt int 16 & info [ "rob" ] ~docv:"N" ~doc:"ROB entries.")
  in
  let lsq =
    Arg.(value & opt int 8 & info [ "lsq" ] ~docv:"N" ~doc:"LSQ entries.")
  in
  Cmd.v
    (Cmd.info "area" ~doc:"Evaluate the FPGA area model")
    Term.(const area $ width_arg $ rob $ lsq)

(* --- schedule -------------------------------------------------------- *)

let schedule organization width =
  let schedule = Resim_core.Minor_cycle.build organization ~width in
  print_string (Resim_core.Minor_cycle.render schedule)

let schedule_cmd =
  let organization =
    Arg.(
      value
      & opt organization_conv Resim_core.Config.Optimized
      & info [ "org" ] ~docv:"ORG"
          ~doc:"Internal organization: simple, improved or optimized.")
  in
  Cmd.v
    (Cmd.info "schedule" ~doc:"Render a minor-cycle schedule (Figs. 2-4)")
    Term.(const schedule $ organization $ width_arg)

(* --- table ----------------------------------------------------------- *)

let table number =
  let ppf = Format.std_formatter in
  match number with
  | 1 -> Resim_reports.Table1.print ppf; Format.printf "@."
  | 2 -> Resim_reports.Table2.print ppf; Format.printf "@."
  | 3 -> Resim_reports.Table3.print ppf; Format.printf "@."
  | 4 -> Resim_reports.Table4.print ppf; Format.printf "@."
  | n ->
      Format.eprintf "no such table: %d (1-4)@." n;
      exit 1

let table_cmd =
  let number =
    Arg.(
      required
      & pos 0 (some int) None
      & info [] ~docv:"N" ~doc:"Table number (1-4).")
  in
  Cmd.v
    (Cmd.info "table" ~doc:"Regenerate one of the paper's tables")
    Term.(const table $ number)

(* --- ptrace ----------------------------------------------------------- *)

let ptrace workload scale source_file window =
  let program = program_of ?source_file workload scale in
  let records = Resim_tracegen.Generator.records program in
  let engine = Resim_core.Engine.create records in
  let trace = Resim_core.Pipeline_trace.create ~window engine in
  Resim_core.Pipeline_trace.run trace;
  print_string (Resim_core.Pipeline_trace.render trace)

let ptrace_cmd =
  let window =
    Arg.(
      value & opt int 32
      & info [ "window" ] ~docv:"N"
          ~doc:"How many instructions to trace from the start.")
  in
  Cmd.v
    (Cmd.info "ptrace"
       ~doc:"Render a per-instruction pipeline Gantt chart (ptrace \
             analog)")
    Term.(const ptrace $ kernel_arg $ scale_arg $ program_arg $ window)

(* --- profile ---------------------------------------------------------- *)

let profile workload scale source_file trace_file json =
  (* A trace file streams, so its decode is charged to the fetch phase
     that pulls it. *)
  let trace, cleanup =
    match trace_file with
    | Some path -> open_trace path
    | None ->
        let program = program_of ?source_file workload scale in
        (Resim_core.Resim.Records (Resim_tracegen.Generator.records program),
         ignore)
  in
  let config = Resim_core.Config.reference in
  ensure_valid_config ~context:"profile" config;
  let prof = Resim_obs.Prof.create () in
  (* The phase-probe closer charges the span still open when the run
     ends; Resim.run owns the engine, so capture it here. *)
  let closer = ref (fun () -> ()) in
  let engine_variant = ref None in
  let result =
    Fun.protect ~finally:cleanup (fun () ->
        Resim_core.Resim.run ~config
          ~instrument:(fun engine ->
            engine_variant := Resim_core.Engine.variant engine;
            closer := Resim_obs.Prof.instrument_engine prof engine)
          trace)
  in
  !closer ();
  match result with
  | Error failure -> report_failure ~command:"profile" failure
  | Ok robust ->
      let stats = robust.Resim_core.Resim.outcome.Resim_core.Resim.stats in
      Format.printf "%Ld major cycles, %Ld instructions committed@."
        (Resim_core.Stats.get Resim_core.Stats.major_cycles stats)
        (Resim_core.Stats.get Resim_core.Stats.committed stats);
      Format.printf "engine: %s@.@."
        (match !engine_variant with
        | Some name -> "specialized (" ^ name ^ ")"
        | None -> "generic");
      Format.printf "%a@." Resim_obs.Prof.pp prof;
      (match json with
      | Some path ->
          write_file path
            (Resim_obs.Prof.to_json
               ~specialized:
                 (match !engine_variant with Some _ -> true | None -> false)
               ?variant:!engine_variant prof);
          Format.printf "wrote profile %s@." path
      | None -> ())

let profile_cmd =
  let trace_file =
    Arg.(
      value
      & opt (some file) None
      & info [ "t"; "trace" ] ~docv:"FILE"
          ~doc:"Profile a trace file instead of a kernel.")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"PATH"
          ~doc:"Also write the section table as JSON to $(docv).")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Attribute host wall time and allocation to engine phases \
             (phase probes; markedly slower than a bare run, ratios \
             stay representative)")
    Term.(
      const profile $ kernel_arg $ scale_arg $ program_arg $ trace_file
      $ json)

(* --- vhdl ------------------------------------------------------------- *)

let vhdl width rob lsq output_dir =
  let config =
    { Resim_core.Config.reference with
      width;
      ifq_entries = width;
      decouple_entries = width;
      alu_count = width;
      rob_entries = rob;
      lsq_entries = lsq;
      mem_read_ports = max 1 ((width - 1) / 2);
      mem_write_ports = 1;
      organization =
        (if width >= 3 then Resim_core.Config.Optimized
         else Resim_core.Config.Improved) }
  in
  ensure_valid_config ~context:"vhdl" config;
  let paths =
    writing output_dir (fun () ->
        Resim_vhdlgen.Core_gen.write_all ~dir:output_dir config)
  in
  List.iter (fun path -> Format.printf "wrote %s@." path) paths

let vhdl_cmd =
  let rob =
    Arg.(value & opt int 16 & info [ "rob" ] ~docv:"N" ~doc:"ROB entries.")
  in
  let lsq =
    Arg.(value & opt int 8 & info [ "lsq" ] ~docv:"N" ~doc:"LSQ entries.")
  in
  let output_dir =
    Arg.(
      value & opt string "vhdl"
      & info [ "o"; "output-dir" ] ~docv:"DIR" ~doc:"Output directory.")
  in
  Cmd.v
    (Cmd.info "vhdl"
       ~doc:"Generate the parametric VHDL bundle (params + predictor)")
    Term.(const vhdl $ width_arg $ rob $ lsq $ output_dir)

(* --- disasm ----------------------------------------------------------- *)

let disasm workload scale source_file =
  let program = program_of ?source_file workload scale in
  print_string (Resim_isa.Disasm.program program)

let disasm_cmd =
  Cmd.v
    (Cmd.info "disasm"
       ~doc:"Disassemble a kernel or assembly file to parser syntax")
    Term.(const disasm $ kernel_arg $ scale_arg $ program_arg)

(* --- sweep ----------------------------------------------------------- *)

let dedupe_jobs jobs =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun (job : Resim_sweep.Sweep.job) ->
      let key =
        (Resim_workloads.Workload.name_of job.workload, job.config,
         job.scale)
      in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.add seen key ();
        true
      end)
    jobs

let sweep jobs quick timeout max_cycles retries metrics_out profile_pool
    sample =
  let sample_spec =
    match sample with
    | None -> None
    | Some raw -> (
        match Resim_sample.Sample.spec_of_string raw with
        | Ok spec -> Some spec
        | Error message ->
            Format.eprintf "--sample %s@." message;
            exit 2)
  in
  let jobs = max 1 jobs in
  let grid =
    List.map Resim_reports.Runner.job_of_request
      (Resim_reports.Ablations.requests ())
  in
  let grid =
    if quick then
      dedupe_jobs
        (List.map
           (fun job ->
             { job with Resim_sweep.Sweep.scale = Resim_sweep.Sweep.Default })
           grid)
    else grid
  in
  let grid =
    match sample_spec with
    | None -> grid
    | Some _ ->
        List.map
          (fun job -> { job with Resim_sweep.Sweep.sample = sample_spec })
          grid
  in
  List.iter
    (fun (job : Resim_sweep.Sweep.job) ->
      ensure_valid_config ~context:("sweep job " ^ job.label) job.config)
    grid;
  Format.printf
    "sweeping %d job(s) across %d worker domain(s) (host recommends %d)@."
    (List.length grid) jobs
    (Resim_sweep.Pool.recommended_jobs ());
  let policy =
    { Resim_sweep.Sweep.default_policy with timeout; max_cycles; retries }
  in
  let prof =
    if profile_pool then Some (Resim_obs.Prof.create ()) else None
  in
  let started = Unix.gettimeofday () in
  let report = Resim_sweep.Sweep.run ~policy ?prof ~jobs grid in
  let wall = Unix.gettimeofday () -. started in
  let results = Resim_sweep.Sweep.completed report in
  Format.printf "%a@." Resim_sweep.Sweep.pp_table results;
  Format.printf "wall clock %.2f s at -j %d (%.2fx vs serial-equivalent)@."
    wall jobs
    (if wall > 0.0 then Resim_sweep.Sweep.total_wall results /. wall
     else 1.0);
  let counts = Resim_sweep.Sweep.counts report in
  Format.printf
    "outcomes: %d ok, %d failed, %d timed out, %d truncated, %d retried@."
    counts.ok counts.failed counts.timed_out counts.truncated counts.retried;
  Format.printf "%a@." Resim_sweep.Sweep.pp_stalls results;
  (match metrics_out with
  | Some path ->
      write_file path (Resim_sweep.Sweep.metrics_json report);
      Format.printf "wrote metrics %s@." path
  | None -> ());
  (match prof with
  | Some prof -> Format.printf "%a@." Resim_obs.Prof.pp prof
  | None -> ());
  if Resim_sweep.Sweep.failures report <> [] then begin
    Format.printf "%a@." Resim_sweep.Sweep.pp_failures report;
    exit 1
  end

let sweep_cmd =
  let jobs =
    Arg.(
      value
      & opt int (Resim_sweep.Pool.recommended_jobs ())
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:"Worker domains to shard the sweep across (1 = serial; \
                results are identical at any value).")
  in
  let quick =
    Arg.(
      value & flag
      & info [ "quick" ]
          ~doc:"Rescale every job to its kernel's default (small) input \
                for a fast smoke run.")
  in
  let timeout =
    Arg.(
      value
      & opt (some float) None
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:"Per-job wall-clock budget; jobs over it report timed out.")
  in
  let max_cycles =
    Arg.(
      value
      & opt (some int64) None
      & info [ "max-cycles" ] ~docv:"N"
          ~doc:"Per-job cycle budget; jobs over it report truncated \
                partial statistics.")
  in
  let retries =
    Arg.(
      value & opt int 0
      & info [ "retries" ] ~docv:"N"
          ~doc:"Extra attempts for crashed or timed-out jobs, with \
                doubling capped backoff between rounds. Deterministic \
                failures — trace faults, deadlocks, invalid \
                configurations — are never retried.")
  in
  let metrics =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:"Write the whole-sweep metrics document to $(docv): per \
                job its label, outcome, attempts, telemetry and full \
                engine statistics JSON.")
  in
  let profile_pool =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:"Profile the worker pool: per-domain wait vs run time \
                and allocation, printed after the sweep.")
  in
  let sample =
    Arg.(
      value
      & opt (some string) None
      & info [ "sample" ] ~docv:"SPEC"
          ~doc:"Run every job sampled ($(b,detail:warmup[:seed]), see \
                $(b,resim simulate --sample)); per-job metrics gain a \
                $(b,sample) section with the interval IPCs and 95% \
                confidence interval.")
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:"Run the full ablation grid as a domain-parallel sweep")
    Term.(
      const sweep $ jobs $ quick $ timeout $ max_cycles $ retries $ metrics
      $ profile_pool $ sample)

(* --- bench ----------------------------------------------------------- *)

let bench json quick =
  (* The bench grid runs exactly these two configurations. *)
  ensure_valid_config ~context:"bench reference"
    Resim_core.Config.reference;
  ensure_valid_config ~context:"bench fast-comparable"
    Resim_core.Config.fast_comparable;
  let measurements = Resim_reports.Hostbench.measure ~quick () in
  Format.printf "%a@." Resim_reports.Hostbench.pp_table measurements;
  let sampled = Resim_reports.Hostbench.measure_sampled ~quick () in
  Format.printf "%a@." Resim_reports.Hostbench.pp_sampled sampled;
  (* Full runs also sweep the (default-scale) ablation grid through the
     fault-domain runner, recording per-job outcome counts in the JSON;
     quick mode skips it and the counts report null. *)
  let sweep_outcomes =
    if quick then None
    else begin
      let grid =
        dedupe_jobs
          (List.map
             (fun request ->
               { (Resim_reports.Runner.job_of_request request) with
                 Resim_sweep.Sweep.scale = Resim_sweep.Sweep.Default })
             (Resim_reports.Ablations.requests ()))
      in
      let report = Resim_sweep.Sweep.run grid in
      let counts = Resim_sweep.Sweep.counts report in
      Format.printf
        "sweep outcomes (%d job(s)): %d ok, %d failed, %d timed out, \
         %d truncated, %d retried@."
        (List.length grid) counts.ok counts.failed counts.timed_out
        counts.truncated counts.retried;
      Some counts
    end
  in
  match json with
  | Some path ->
      write_file path
        (Resim_reports.Hostbench.to_json ?sweep_outcomes ~sampled
           measurements);
      Format.printf "wrote %s@." path
  | None -> ()

let bench_cmd =
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"PATH"
          ~doc:"Write the host-MIPS grid (kernel x config) as JSON to \
                $(docv) — the cross-PR perf trajectory (conventionally \
                BENCH_engine.json).")
  in
  let quick =
    Arg.(
      value & flag
      & info [ "quick" ]
          ~doc:"Shrink the grid to one small kernel for a smoke run.")
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:"Measure engine host throughput per (kernel, config)")
    Term.(const bench $ json $ quick)

(* --- lint ------------------------------------------------------------ *)

let lint trace_files max_run pipetrace foreign_format =
  let failed = ref false in
  let lint_binary path =
    let report = Check.Trace.lint_file ?max_wrong_path_run:max_run path in
    let diagnostics = report.Check.Trace.diagnostics in
    Format.printf "%s: %s (%d record(s), %d wrong-path in %d block(s)%s)@."
      path
      (Check.Diagnostic.summary diagnostics)
      report.records_checked report.wrong_path_records
      report.wrong_path_blocks
      (match report.format with
       | Some Resim_trace.Codec.Fixed -> ", fixed encoding"
       | Some Resim_trace.Codec.Compact -> ", compact encoding"
       | None -> "");
    diagnostics
  in
  (* Foreign text traces lint through their adapter: the adapted
     records run the same structural rules, and a malformed line is
     its RSM-A diagnostic with file:line:col. *)
  let lint_foreign format path =
    let report_of file ic =
      let adapter = Adapter.of_channel ~format ~file ic in
      Check.Trace.lint_adapter ?max_wrong_path_run:max_run adapter
    in
    let report =
      if String.equal path "-" then Ok (report_of "<stdin>" stdin)
      else
        match open_in_bin path with
        | exception Sys_error reason -> Error reason
        | ic ->
            Fun.protect
              ~finally:(fun () -> close_in_noerr ic)
              (fun () -> Ok (report_of path ic))
    in
    match report with
    | Error reason ->
        let diagnostics =
          [ Check.Diagnostic.error ~code:"RSM-T009" ~subject:path reason ]
        in
        Format.printf "%s: %s@." path (Check.Diagnostic.summary diagnostics);
        diagnostics
    | Ok report ->
        let diagnostics = report.Check.Trace.diagnostics in
        Format.printf
          "%s: %s (%d record(s), %d wrong-path in %d block(s), %s \
           profile)@."
          path
          (Check.Diagnostic.summary diagnostics)
          report.records_checked report.wrong_path_records
          report.wrong_path_blocks
          (Adapter.format_to_string format);
        diagnostics
  in
  (* A path that is not a file on disk may name a shard set: lint every
     shard. Explicit existing files are linted as given. *)
  let expand path =
    if pipetrace || foreign_format <> None || Sys.file_exists path then
      [ path ]
    else
      match Resim_trace.Codec.Shard.expand path with
      | Some shards -> shards
      | None -> [ path ]
  in
  let trace_files = List.concat_map expand trace_files in
  let lint_pipetrace path =
    let report = Check.Obs.lint_file path in
    let diagnostics = report.Check.Obs.diagnostics in
    Format.printf "%s: %s (%d line(s)%s)@." path
      (Check.Diagnostic.summary diagnostics)
      report.lines_checked
      (match report.events with
       | [] -> ""
       | events ->
           ", "
           ^ String.concat " "
               (List.map
                  (fun (kind, count) -> Printf.sprintf "%s:%d" kind count)
                  events));
    diagnostics
  in
  List.iter
    (fun path ->
      let diagnostics =
        if pipetrace then lint_pipetrace path
        else
          match foreign_format with
          | Some format -> lint_foreign format path
          | None -> lint_binary path
      in
      if diagnostics <> [] then
        Format.printf "%a@." Check.Diagnostic.pp_list diagnostics;
      if Check.Diagnostic.has_errors diagnostics then failed := true)
    trace_files;
  if !failed then exit 1

let lint_cmd =
  let traces =
    Arg.(
      non_empty & pos_all string []
      & info [] ~docv:"TRACE"
          ~doc:"Trace file(s) to lint: encoded RSTR streams, shard sets \
                (any shard name or the bare stem), foreign text traces \
                (with $(b,--format)), or $(b,-) for stdin (with \
                $(b,--format)). A missing file is an RSM-T009 error, \
                not a usage failure.")
  in
  let max_run =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-wrong-path-run" ] ~docv:"N"
          ~doc:"Longest legal wrong-path run before RSM-T007 fires \
                (default 4096).")
  in
  let pipetrace =
    Arg.(
      value & flag
      & info [ "pipetrace" ]
          ~doc:"The files are pipetrace JSONL streams (from $(b,resim \
                simulate --pipetrace)); validate them against the \
                schema (RSM-P codes) instead of decoding binary \
                traces.")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Statically lint encoded trace files (resim-check layer 2), \
             foreign text traces through their adapter ($(b,--format), \
             RSM-A codes), or pipetrace JSONL streams (layer 4); exits \
             1 when any file has errors")
    Term.(const lint $ traces $ max_run $ pipetrace $ adapter_format_arg)

(* --- workloads ------------------------------------------------------- *)

let workloads () =
  List.iter
    (fun workload ->
      Format.printf "%-8s %s@."
        (Resim_workloads.Workload.name_of workload)
        (Resim_workloads.Workload.description_of workload))
    (Resim_workloads.Workload.all @ Resim_workloads.Workload.extended)

let workloads_cmd =
  Cmd.v
    (Cmd.info "workloads" ~doc:"List the built-in kernels")
    Term.(const workloads $ const ())

(* --- serve / submit / loadgen (DESIGN.md §16) ------------------------ *)

module Server = Resim_serve.Server
module Serve_client = Resim_serve.Client
module Serve_protocol = Resim_serve.Protocol
module Serve_load = Resim_serve.Load

let socket_arg =
  Arg.(
    value
    & opt string "/tmp/resimd.sock"
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path.")

let serve socket workers max_queue max_per_client retries backoff cache_dir
    test_hooks verbose =
  let config =
    { (Server.default_config ~socket_path:socket) with
      Server.workers;
      max_queue;
      max_per_client;
      retries;
      backoff;
      cache_dir;
      test_hooks;
      verbose }
  in
  match Server.run config with
  | Ok () -> ()
  | Error message ->
      Printf.eprintf "resim serve: %s\n" message;
      exit 2

let serve_cmd =
  let workers =
    Arg.(
      value & opt int 2
      & info [ "workers" ] ~docv:"N" ~doc:"Worker domains.")
  in
  let max_queue =
    Arg.(
      value & opt int 64
      & info [ "max-queue" ] ~docv:"N"
          ~doc:"Queued-job bound; drives shedding and $(b,queue-full) \
                rejections.")
  in
  let max_per_client =
    Arg.(
      value & opt int 8
      & info [ "max-per-client" ] ~docv:"N"
          ~doc:"Outstanding jobs allowed per client name before \
                $(b,over-quota).")
  in
  let retries =
    Arg.(
      value & opt int 2
      & info [ "retries" ] ~docv:"N"
          ~doc:"Times a job is requeued after its worker domain dies \
                before it is reported as $(b,crash).")
  in
  let backoff =
    Arg.(
      value & opt float 0.05
      & info [ "backoff" ] ~docv:"SECONDS"
          ~doc:"Initial crash-requeue delay (doubles per attempt, \
                capped at 1s).")
  in
  let cache_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache-dir" ] ~docv:"DIR"
          ~doc:"Persist the content-addressed result cache here \
                (memory-only otherwise).")
  in
  let test_hooks =
    Arg.(
      value & flag
      & info [ "test-hooks" ]
          ~doc:"Enable the $(b,crash-worker) request so tests and the \
                smoke script can exercise the supervisor.")
  in
  let verbose =
    Arg.(
      value & flag
      & info [ "verbose" ] ~doc:"Supervision chatter on stderr.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run resimd, the fault-tolerant simulation job server: \
             admission control with typed rejections, overload \
             shedding (lint first, then sweeps, never in-flight \
             simulates), crashed-worker supervision with capped \
             retry/backoff, a content-addressed result cache, and \
             clean drain on SIGTERM")
    Term.(
      const serve $ socket_arg $ workers $ max_queue $ max_per_client
      $ retries $ backoff $ cache_dir $ test_hooks $ verbose)

let submit socket client status lint crash_worker garbage sweep kernels widths
    kernel scale trace base width rob lsq organization max_cycles timeout
    sample quiet =
  let config_spec =
    { Serve_protocol.base; width; rob; lsq; organization }
  in
  let body =
    if status then Serve_protocol.Status
    else if crash_worker then Serve_protocol.Crash_worker
    else
      match lint with
      | Some path -> Serve_protocol.Lint { path; max_run = None }
      | None ->
          if sweep then
            Serve_protocol.Sweep_grid
              { kernels =
                  (if kernels = [] then [ "gzip"; "vpr" ] else kernels);
                widths = (if widths = [] then [ 2; 4 ] else widths);
                config = config_spec;
                max_cycles;
                timeout;
                sample }
          else
            Serve_protocol.Simulate
              { Serve_protocol.kernel;
                scale;
                trace;
                config = config_spec;
                max_cycles;
                timeout;
                sample }
  in
  let on_event = function
    | Serve_protocol.Accepted { job_id } ->
        if not quiet then Printf.eprintf "job %d accepted\n%!" job_id
    | Serve_protocol.Progress { completed; total; label } ->
        if not quiet then
          Printf.eprintf "[%d/%d] %s\n%!" completed total label
    | _ -> ()
  in
  let outcome =
    if garbage then
      (* Test hook: an unframed blob upsets the server, which must
         answer with a typed protocol error, not a hangup. *)
      Serve_client.converse_raw ~on_event ~socket "\xff\xff\xff\xffnope"
    else
      Serve_client.converse ~on_event ~socket
        { Serve_protocol.client; body }
  in
  match outcome with
  | Error error ->
      Printf.eprintf "resim submit: %s\n" (Serve_client.error_to_string error);
      exit (Serve_client.exit_code_of_error error)
  | Ok terminal ->
      (match terminal with
      | Serve_protocol.Done payload ->
          Printf.printf "outcome: %s%s (attempt(s): %d)\n"
            payload.Serve_protocol.outcome
            (if payload.Serve_protocol.cached then " [cached]" else "")
            payload.Serve_protocol.attempts;
          Option.iter
            (fun detail -> Printf.printf "%s\n" detail)
            payload.Serve_protocol.detail;
          Option.iter
            (fun metrics -> Printf.printf "%s\n" metrics)
            payload.Serve_protocol.metrics;
          Option.iter
            (fun checkpoint ->
              Printf.printf "checkpoint:\n%s" checkpoint)
            payload.Serve_protocol.checkpoint
      | Serve_protocol.Rejected rejection ->
          Printf.eprintf "rejected: %s\n"
            (Serve_protocol.rejection_to_string rejection)
      | Serve_protocol.Status_report
          { counters; queue; running; workers; draining } ->
          Printf.printf "workers: %d  queue: %d  running: %d%s\n" workers
            queue running
            (if draining then "  (draining)" else "");
          List.iter
            (fun (name, count) -> Printf.printf "%s: %d\n" name count)
            counters
      | Serve_protocol.Protocol_error fe ->
          Printf.eprintf "protocol error: %s\n"
            (Serve_protocol.frame_error_to_string fe)
      | Serve_protocol.Accepted _ | Serve_protocol.Progress _ -> ());
      exit (Serve_client.exit_code_of_terminal terminal)

let submit_cmd =
  let client =
    Arg.(
      value & opt string "cli"
      & info [ "client" ] ~docv:"NAME"
          ~doc:"Client name for per-client admission quotas.")
  in
  let status =
    Arg.(
      value & flag
      & info [ "status" ] ~doc:"Ask for server status instead of a job.")
  in
  let lint =
    Arg.(
      value
      & opt (some string) None
      & info [ "lint" ] ~docv:"TRACE"
          ~doc:"Submit a trace-lint job for this server-host path.")
  in
  let crash_worker =
    Arg.(
      value & flag
      & info [ "crash-worker" ]
          ~doc:"Test hook: make the worker that takes this job die \
                (server must run with $(b,--test-hooks)).")
  in
  let garbage =
    Arg.(
      value & flag
      & info [ "send-garbage" ]
          ~doc:"Test hook: send an oversized junk frame and report the \
                server's typed protocol error.")
  in
  let sweep =
    Arg.(
      value & flag
      & info [ "sweep" ]
          ~doc:"Submit a kernels × widths sweep grid as one streamed \
                job.")
  in
  let kernels =
    Arg.(
      value
      & opt (list string) []
      & info [ "kernels" ] ~docv:"K1,K2"
          ~doc:"Sweep kernels (default gzip,vpr).")
  in
  let widths =
    Arg.(
      value
      & opt (list int) []
      & info [ "widths" ] ~docv:"W1,W2" ~doc:"Sweep widths (default 2,4).")
  in
  let kernel =
    Arg.(
      value & opt string "gzip"
      & info [ "k"; "kernel" ] ~docv:"KERNEL" ~doc:"Simulate kernel.")
  in
  let scale =
    Arg.(
      value
      & opt (some int) None
      & info [ "s"; "scale" ] ~docv:"N" ~doc:"Kernel scale (input size).")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Simulate this encoded trace (server-host path) instead \
                of generating from a kernel.")
  in
  let base =
    Arg.(
      value & opt string "reference"
      & info [ "base" ] ~docv:"NAME"
          ~doc:"Base configuration: reference or fast.")
  in
  let width =
    Arg.(
      value
      & opt (some int) None
      & info [ "w"; "width" ] ~docv:"N"
          ~doc:"Issue-width override: decouple buffer, ALUs, memory \
                ports and organization as $(b,resim vhdl) derives them; \
                the IFQ keeps the base's depth when that is deeper \
                (reference at width 2: IFQ 4, where $(b,vhdl) builds 2).")
  in
  let rob =
    Arg.(
      value
      & opt (some int) None
      & info [ "rob" ] ~docv:"N" ~doc:"ROB entries override.")
  in
  let lsq =
    Arg.(
      value
      & opt (some int) None
      & info [ "lsq" ] ~docv:"N" ~doc:"LSQ entries override.")
  in
  let organization =
    Arg.(
      value
      & opt (some string) None
      & info [ "organization" ] ~docv:"ORG"
          ~doc:"Organization override (simple|improved|optimized).")
  in
  let max_cycles =
    Arg.(
      value
      & opt (some int64) None
      & info [ "max-cycles" ] ~docv:"N"
          ~doc:"Per-job cycle budget; hitting it yields a partial \
                result plus a resumable checkpoint.")
  in
  let timeout =
    Arg.(
      value
      & opt (some float) None
      & info [ "timeout" ] ~docv:"SECONDS" ~doc:"Per-job wall budget.")
  in
  let sample =
    Arg.(
      value
      & opt (some string) None
      & info [ "sample" ] ~docv:"SPEC"
          ~doc:"Sampled simulation spec detail:warmup[:seed].")
  in
  let quiet =
    Arg.(
      value & flag
      & info [ "quiet" ] ~doc:"Suppress accepted/progress chatter.")
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:"Submit a job to a running $(b,resim serve) daemon and \
             stream its events. Exit codes: job's own code (0 ok or \
             truncated, 1 lint errors, 2 invalid config/request, 3 \
             server-side fault) plus 4 when the server is unreachable \
             and 5 when admission rejects the job (quota, queue, \
             shedding, draining)")
    Term.(
      const submit $ socket_arg $ client $ status $ lint $ crash_worker
      $ garbage $ sweep $ kernels $ widths $ kernel $ scale $ trace $ base
      $ width $ rob $ lsq $ organization $ max_cycles $ timeout $ sample
      $ quiet)

let loadgen socket kernel jobs clients quick output =
  let client_counts = if quick then [ 1; 2 ] else clients in
  let jobs_per_client = if quick then 2 else jobs in
  let tiers =
    Serve_load.run ~kernel ~jobs_per_client ~client_counts ~socket ()
  in
  List.iter
    (fun tier ->
      Printf.printf
        "%2d client(s): %5.1f jobs/s  p50 %6.1f ms  p99 %6.1f ms  (%d \
         job(s), %d error(s))\n"
        tier.Serve_load.clients tier.Serve_load.jobs_per_sec
        tier.Serve_load.p50_ms tier.Serve_load.p99_ms tier.Serve_load.jobs
        tier.Serve_load.errors)
    tiers;
  match output with
  | None -> ()
  | Some path ->
      write_file path (Serve_load.to_json tiers);
      Printf.printf "wrote %s\n" path

let loadgen_cmd =
  let kernel =
    Arg.(
      value & opt string "gzip"
      & info [ "k"; "kernel" ] ~docv:"KERNEL" ~doc:"Kernel to submit.")
  in
  let jobs =
    Arg.(
      value & opt int 8
      & info [ "jobs" ] ~docv:"N" ~doc:"Jobs per client.")
  in
  let clients =
    Arg.(
      value
      & opt (list int) [ 1; 4; 16 ]
      & info [ "clients" ] ~docv:"N1,N2"
          ~doc:"Client-count tiers to measure.")
  in
  let quick =
    Arg.(
      value & flag
      & info [ "quick" ]
          ~doc:"CI-sized run: tiers 1,2 with 2 jobs per client.")
  in
  let output =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the tier table as JSON (BENCH_service.json).")
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:"Drive a running $(b,resim serve) daemon with N concurrent \
             clients and report jobs/sec with p50/p99 latency per tier")
    Term.(
      const loadgen $ socket_arg $ kernel $ jobs $ clients $ quick $ output)

let () =
  let info =
    Cmd.info "resim" ~version:Resim_core.Resim.version
      ~doc:"Trace-driven ILP processor timing simulation (DATE 2009 \
            reproduction)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ tracegen_cmd; faultgen_cmd; simulate_cmd; area_cmd;
            schedule_cmd; table_cmd; sweep_cmd; bench_cmd; lint_cmd;
            disasm_cmd; vhdl_cmd; ptrace_cmd; profile_cmd;
            workloads_cmd; serve_cmd; submit_cmd; loadgen_cmd ]))
