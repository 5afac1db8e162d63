(* The traced run: calls each layer's public function in-process on the
   run's inputs, bracketing every call with a span, and derives the
   per-layer metrics from the spans' self times. The engine is set up
   as the CLI sets it up ([Spec.install ~mode:Auto]), on the reference
   configuration, with empty caches and predictors. *)

module Span = Measure.Span
module Codec = Resim_trace.Codec
module Adapter = Resim_trace.Adapter
module Engine = Resim_core.Engine
module Source = Resim_core.Source
module Stats = Resim_core.Stats
module Sweep = Resim_sweep.Sweep
module Protocol = Resim_serve.Protocol
module Exec = Resim_serve.Exec
module Cache = Resim_serve.Cache

open Workloads

let fail = setup_failed

let run_engine ~mode records =
  let engine = Engine.create ~config:Resim_core.Config.reference records in
  ignore (Resim_spec.Spec.install ~mode engine : bool);
  Engine.run engine

(* Facts about the inputs, taken on the first repetition. *)
type facts = {
  mutable file_bytes : int;
  mutable records : int;
  mutable committed : int;
  mutable fetched : int;
  mutable cycles : int;
  mutable json_bytes : int;
  mutable adapter : Adapter.stats option;
  mutable generated : int;
}

let facts =
  { file_bytes = 0; records = 0; committed = 0; fetched = 0; cycles = 0;
    json_bytes = 0; adapter = None; generated = 0 }

let json_reps = 100
let codec_reps = 1000

(* Decode, summary, bpi, engine (staged and generic), Stats JSON and
   the two Source shapes, over the encoded trace. *)
let codec_engine_pass ~op rtr =
  let records =
    Span.record ~op "codec.decode" (fun () ->
        match Codec.read_file_result rtr with
        | Ok (records, _) -> records
        | Error e -> fail "%s: %s" rtr (Codec.error_to_string e))
  in
  ignore (Span.record ~op "summary" (fun () -> Resim_trace.Summary.of_records records));
  ignore (Span.record ~op "codec.bpi" (fun () -> Codec.bits_per_instruction records));
  let stats = Span.record ~op "engine" (fun () -> run_engine ~mode:Auto records) in
  let generic =
    Span.record ~op "engine.generic" (fun () -> run_engine ~mode:Never records)
  in
  if Stats.to_assoc stats <> Stats.to_assoc generic then
    fail "staged and generic engines disagree";
  Span.record ~op "stats.to_json" (fun () ->
      for _ = 1 to json_reps do
        ignore (Sys.opaque_identity (Stats.to_json stats))
      done);
  let n = Array.length records in
  let sink = ref 0 in
  Span.record ~op "source.whole" (fun () ->
      let source = Source.of_array records in
      for i = 0 to n - 1 do
        if Source.has source i then sink := !sink + (Source.get source i).pc
      done);
  Span.record ~op "source.windowed" (fun () ->
      let next = ref 0 in
      let source =
        Source.of_pull (fun () ->
            if !next < n then begin
              let r = records.(!next) in
              incr next;
              Some r
            end
            else None)
      in
      for i = 0 to n - 1 do
        if Source.has source i then begin
          sink := !sink + (Source.get source i).pc;
          Source.release_below source i
        end
      done);
  ignore (Sys.opaque_identity !sink);
  facts.file_bytes <- (Unix.stat rtr).Unix.st_size;
  facts.records <- n;
  facts.committed <- Stats.get_int Stats.committed stats;
  facts.fetched <- Stats.get_int Stats.fetched stats;
  facts.cycles <- Stats.get_int Stats.major_cycles stats;
  facts.json_bytes <- String.length (Stats.to_json stats)

let stream_pass ~op rtr =
  let count =
    Span.record ~op "codec.stream" (fun () ->
        match Resim_trace.Stream.open_file rtr with
        | Ok stream -> Resim_trace.Stream.fold (fun n _ -> n + 1) 0 stream
        | Error e -> fail "%s: %s" rtr (Codec.error_to_string e))
  in
  if count <> facts.records then fail "streamed %d of %d records" count facts.records

(* The adapter drains the RV32 trace the way the streaming engine
   pulls it: one record at a time, none retained. *)
let adapter_pass ~op rv =
  let stats =
    Span.record ~op "adapter" (fun () ->
        In_channel.with_open_bin rv (fun ic ->
            let adapter = Adapter.of_channel ~format:Adapter.Riscv ~file:rv ic in
            let rec drain () =
              match Adapter.next_result adapter with
              | Ok (Some _) -> drain ()
              | Ok None -> Adapter.stats adapter
              | Error e -> fail "%s" (Adapter.error_to_string e)
            in
            drain ()))
  in
  facts.adapter <- Some stats

let tracegen_pass ~op program =
  let generated =
    Span.record ~op "tracegen" (fun () -> Resim_tracegen.Generator.run program)
  in
  facts.generated <- Array.length generated.records

(* The CLI's `sweep --quick` grid, built the way the CLI builds it. *)
let quick_grid () =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun (job : Sweep.job) ->
      let key = (Resim_workloads.Workload.name_of job.workload, job.config) in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.add seen key ();
        true
      end)
    (List.map
       (fun request ->
         { (Resim_reports.Runner.job_of_request request) with scale = Sweep.Default })
       (Resim_reports.Ablations.requests ()))

(* Drop every per-job "telemetry":{...} member (host wall time and
   MIPS) so the rest of the sweep document is comparable across runs. *)
let strip_telemetry doc =
  let key = "\"telemetry\":{" in
  let n = String.length doc and m = String.length key in
  let b = Buffer.create n in
  let rec go i j =
    if j + m > n then Buffer.add_substring b doc i (n - i)
    else if String.sub doc j m <> key then go i (j + 1)
    else begin
      Buffer.add_substring b doc i (j - i);
      let close = String.index_from doc j '}' + 1 in
      let next = if close < n && doc.[close] = ',' then close + 1 else close in
      go next next
    end
  in
  go 0 0;
  Buffer.contents b

(* The grid ignores the seed, so its metrics document (what
   `resim sweep --metrics` writes) must match the golden digest on
   every run, at both domain counts. *)
let sweep_pass ctx tally =
  let grid = quick_grid () in
  let instrument = Resim_spec.Spec.instrument Auto in
  let run name jobs =
    let report =
      Span.record ~op:0 name (fun () -> Sweep.run ~jobs ~instrument grid)
    in
    let counts = Sweep.counts report in
    if counts.ok <> List.length grid then
      fail "in-process sweep at -j %d: %d of %d jobs ok" jobs counts.ok
        (List.length grid);
    let digest = Resim_core.Hash.string (strip_telemetry (Sweep.metrics_json report)) in
    check tally
      (List.assoc_opt "sweep" ctx.golden = Some digest)
      "sweep at -j %d: output digest %s differs from the golden one" jobs digest;
    Sweep.total_wall (Sweep.completed report)
  in
  let engine_j1 = run "sweep.j1" 1 in
  let engine_j2 = run "sweep.j2" parallelism in
  (engine_j1, engine_j2)

(* Exec, Protocol and Cache in-process, on the first cold requests of
   this seed and the set-up lint trace. *)
let serve_pass ctx =
  let bodies = cold_bodies ctx 24 in
  let exec body =
    Exec.run ~retries:0 ~backoff:0.05 ~max_backoff:1.0 ~test_hooks:false body
  in
  let payloads =
    Array.mapi (fun op body -> Span.record ~op "serve.exec" (fun () -> exec body)) bodies
  in
  (* The end-to-end statistic of serve-cold, over the same requests. *)
  let exec_cold =
    best_per_kind
      (List.mapi
         (fun i wall ->
           { kind = kind_of_body bodies.(i); wall; instructions = 0; ok = true })
         (Array.to_list (Span.self_times "serve.exec")))
  in
  Array.iter
    (fun (p : Protocol.done_payload) ->
      if p.outcome <> "ok" then fail "in-process exec: %s" p.outcome)
    payloads;
  for op = 0 to 4 do
    let p = Span.record ~op "serve.exec_lint" (fun () -> exec (lint_body ctx)) in
    if p.outcome <> "lint-clean" then fail "in-process lint: %s" p.outcome
  done;
  let encoded =
    Array.mapi
      (fun op p ->
        let event = Protocol.Done p in
        Span.record ~op "serve.encode" (fun () ->
            for _ = 2 to codec_reps do
              ignore (Sys.opaque_identity (Protocol.encode_event event))
            done;
            Protocol.encode_event event))
      payloads
  in
  Array.iteri
    (fun op text ->
      Span.record ~op "serve.decode" (fun () ->
          for _ = 1 to codec_reps do
            ignore (Sys.opaque_identity (Protocol.decode_event text))
          done))
    encoded;
  let keys = Array.map (fun b -> Option.get (Exec.cache_key b)) bodies in
  let cache = Cache.create () in
  Span.record ~op:0 "serve.cache_store" (fun () ->
      Array.iteri (fun i key -> Cache.store cache key encoded.(i)) keys);
  Span.record ~op:0 "serve.cache_find" (fun () ->
      for _ = 1 to codec_reps do
        Array.iter (fun key -> ignore (Sys.opaque_identity (Cache.find cache key))) keys
      done);
  (exec_cold, Array.length keys, Array.map (fun t -> float_of_int (String.length t)) encoded)

let prepare_inputs ctx tally =
  let rtr = trace_file ctx in
  if not (Sys.file_exists rtr) then ignore (tracegen_setup ctx ~out:rtr : float array);
  let rv = riscv_file ctx in
  if not (Sys.file_exists rv) then
    ignore (riscv_fixture ctx tally ~rtr : int);
  if not (Sys.file_exists (lint_trace ctx)) then write_lint_trace ctx;
  (rtr, rv)

(* A layer's time is its fastest pass, matching the end-to-end
   statistic (the best case), so the residual compares like with
   like. *)
let best name = Array.fold_left Float.min Float.infinity (Span.self_times name)

(* Run every layer pass and derive the per-layer metrics; [e2e] is
   this run's end-to-end measurement, for the op metrics and the
   residual. *)
let run ctx tally ~workload ~(e2e : e2e) =
  let rtr, rv = prepare_inputs ctx tally in
  let program =
    Resim_workloads.Workload.program_of
      (Resim_workloads.Workload.find kernel)
      ~scale:(scale ctx) ()
  in
  for op = 1 to 3 do
    Span.record ~op "layers" (fun () ->
        Gc.compact ();
        codec_engine_pass ~op rtr;
        Gc.compact ();
        stream_pass ~op rtr;
        adapter_pass ~op rv;
        Gc.compact ();
        tracegen_pass ~op program;
        Gc.compact ())
  done;
  let engine_j1, engine_j2 = sweep_pass ctx tally in
  let exec_cold, keys, reply_bytes = serve_pass ctx in
  let decode = best "codec.decode"
  and bpi = best "codec.bpi"
  and stream = best "codec.stream"
  and summary = best "summary"
  and adapter = best "adapter"
  and engine = best "engine"
  and whole = best "source.whole"
  and windowed = best "source.windowed"
  and json = best "stats.to_json" /. float_of_int json_reps
  and j1 = best "sweep.j1"
  and j2 = best "sweep.j2"
  and encode = best "serve.encode" /. float_of_int codec_reps
  and decode_event = best "serve.decode" /. float_of_int codec_reps
  and find = best "serve.cache_find" /. float_of_int (codec_reps * keys) in
  let stats = Option.get facts.adapter in
  let per_record total n = total /. float_of_int n in
  let window_extra n =
    (per_record windowed facts.records -. per_record whole facts.records)
    *. float_of_int n
  in
  let op_wall = e2e.wall_best in
  let blocking =
    match workload with
    | "simulate-file" -> decode +. summary +. bpi +. engine +. json
    | "simulate-stream" ->
        stream +. summary +. engine +. window_extra facts.records +. json
    | "adapt-riscv" ->
        (* the engine's share is taken from the encoded trace: the
           adapted one has the same correct path *)
        let records = stats.Adapter.instructions + stats.wrong_path in
        adapter +. summary +. engine +. window_extra records +. json
    | "serve-cold" -> exec_cold +. encode +. decode_event
    | "serve-warm" -> find +. encode +. decode_event
    | other -> invalid_arg other
  in
  let residual = op_wall -. blocking in
  let m name unit value = { name; unit; value; samples = [||] } in
  let ms name unit scale span =
    { name; unit; value = best span *. scale; samples = Array.map (fun s -> s *. scale) (Span.self_times span) }
  in
  [ ms "codec.decode_s" "s" 1. "codec.decode";
    m "codec.decode_mb_per_s" "MB/s" (float_of_int facts.file_bytes /. decode /. 1e6);
    ms "codec.bpi_s" "s" 1. "codec.bpi";
    ms "codec.stream_s" "s" 1. "codec.stream";
    m "codec.stream_records_per_s" "1/s" (float_of_int facts.records /. stream);
    ms "summary.s" "s" 1. "summary";
    ms "adapter.s" "s" 1. "adapter";
    m "adapter.lines_per_s" "1/s" (float_of_int stats.lines /. adapter);
    m "adapter.wrong_path_ratio" "ratio"
      (float_of_int stats.wrong_path
      /. float_of_int (stats.instructions + stats.wrong_path));
    m "adapter.mispredicts" "count" (float_of_int stats.mispredicted);
    m "source.whole_ns_per_record" "ns" (per_record whole facts.records *. 1e9);
    m "source.windowed_ns_per_record" "ns" (per_record windowed facts.records *. 1e9);
    ms "engine.s" "s" 1. "engine";
    ms "engine.generic_s" "s" 1. "engine.generic";
    m "engine.host_mips" "MIPS" (float_of_int facts.committed /. engine /. 1e6);
    m "engine.cycles" "count" (float_of_int facts.cycles);
    m "engine.useful_fetch_ratio" "ratio"
      (float_of_int facts.committed /. float_of_int facts.fetched);
    m "stats.to_json_us" "us" (json *. 1e6);
    m "stats.json_bytes" "bytes" (float_of_int facts.json_bytes);
    ms "tracegen.s" "s" 1. "tracegen";
    m "tracegen.records_per_s" "1/s" (float_of_int facts.generated /. best "tracegen");
    m "sweep.j1_wall_s" "s" j1;
    m "sweep.j2_wall_s" "s" j2;
    m "sweep.engine_s_sum_j1" "s" engine_j1;
    m "sweep.engine_s_sum_j2" "s" engine_j2;
    m "sweep.outside_engine_s_j1" "s" (j1 -. engine_j1);
    m "sweep.parallel_efficiency" "ratio" (j1 /. (float_of_int parallelism *. j2));
    { name = "serve.exec_cold_ms"; unit = "ms"; value = exec_cold *. 1000.;
      samples = Array.map (fun s -> s *. 1000.) (Span.self_times "serve.exec") };
    ms "serve.exec_lint_ms" "ms" 1000. "serve.exec_lint";
    m "serve.encode_us" "us" (encode *. 1e6);
    m "serve.decode_us" "us" (decode_event *. 1e6);
    m "serve.reply_bytes" "bytes" (Measure.median reply_bytes);
    m "serve.cache_store_us" "us"
      (best "serve.cache_store" /. float_of_int keys *. 1e6);
    m "serve.cache_find_us" "us" (find *. 1e6) ]
  @ window_metrics e2e
  @ [ m "residual_s" "s" residual; m "residual_share" "ratio" (residual /. op_wall) ]
