(* Tests for the trace frontier: foreign-format adapters (text and
   RISC-V profiles), constant-memory streaming cursors and encoders,
   sharded trace sets, and the differential guarantee that the streamed
   engine path is stats-identical to the in-memory path on every
   workload kernel. *)

open Resim_core
module Record = Resim_trace.Record
module Codec = Resim_trace.Codec
module Adapter = Resim_trace.Adapter
module Stream = Resim_trace.Stream
module Fault = Resim_trace.Fault
module Fault_inject = Resim_trace.Fault_inject
module Trace_check = Resim_check.Check.Trace
module Synthetic = Resim_tracegen.Synthetic
module System = Resim_multicore.System

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let string = Alcotest.string
let i64 = Alcotest.int64

let with_tmp ~suffix f =
  let path = Filename.temp_file "resim_frontier" suffix in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let write_bytes path data =
  let oc = open_out_bin path in
  output_string oc data;
  close_out oc

let read_bytes path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let stats_dump stats = Format.asprintf "%a" Stats.pp stats

let stream_records stream =
  Array.of_list (List.rev (Stream.fold (fun acc r -> r :: acc) [] stream))

(* ------------------------------------------------------------------- *)
(* Differential: streamed pull path vs in-memory array path, every
   workload kernel (plus a synthetic eighth).                           *)

let robust_exn label = function
  | Ok (r : Resim.robust) -> r
  | Error failure ->
      Alcotest.failf "%s: %s" label (Resim.failure_to_string failure)

let test_streamed_matches_in_memory () =
  List.iter
    (fun (name, records) ->
      with_tmp ~suffix:".rtr" (fun path ->
          Codec.write_file ~format:Codec.Compact path records;
          let config = Config.reference in
          let in_memory =
            robust_exn name (Resim.run ~config (Records records))
          in
          let stream =
            match Stream.open_file ~chunk:512 path with
            | Ok stream -> stream
            | Error e ->
                Alcotest.failf "%s: open_file: %s" name
                  (Codec.error_to_string e)
          in
          let streamed =
            Fun.protect
              ~finally:(fun () -> Stream.close stream)
              (fun () ->
                robust_exn name
                  (Resim.run ~config (Pull (fun () -> Stream.next stream))))
          in
          check i64
            (name ^ ": major cycles")
            (Stats.get Stats.major_cycles in_memory.outcome.stats)
            (Stats.get Stats.major_cycles streamed.outcome.stats);
          check string
            (name ^ ": full stats dump")
            (stats_dump in_memory.outcome.stats)
            (stats_dump streamed.outcome.stats);
          check (Alcotest.float 0.0)
            (name ^ ": bits/instr")
            in_memory.outcome.bits_per_instruction
            streamed.outcome.bits_per_instruction))
    (Lazy.force Test_event.kernel_records)

(* Sampling and resume used to read a trace file whole; [simulate -t]
   now streams it for them too. Anchor the stream to the array the old
   path decoded: a [Records] trace from [Codec.read_file_result] and a
   [Pull] from [Stream.open_file] over the same file give the same
   sampled statistics and report, and the same resumed run from a
   cycle-budget checkpoint. *)
let test_sampled_and_resumed_streams_match_arrays () =
  let name, records =
    List.find
      (fun (name, _) -> String.equal name "gzip")
      (Lazy.force Test_event.kernel_records)
  in
  with_tmp ~suffix:".rtr" (fun path ->
      Codec.write_file ~format:Codec.Fixed path records;
      let array =
        match Codec.read_file_result path with
        | Ok (records, _) -> Resim.Records records
        | Error e -> Alcotest.failf "%s: %s" name (Codec.error_to_string e)
      in
      (* A fresh stream per run, closed after it. *)
      let pulled run =
        match Stream.open_file ~chunk:4096 path with
        | Error e -> Alcotest.failf "%s: %s" name (Codec.error_to_string e)
        | Ok stream ->
            Fun.protect
              ~finally:(fun () -> Stream.close stream)
              (fun () -> run (Resim.Pull (fun () -> Stream.next stream)))
      in
      let spec =
        { Resim_sample.Sample.detail = 1000; warmup = 19000; seed = 7 }
      in
      let sampled trace =
        match Resim_sample.Sample.run ~config:Config.reference ~spec trace with
        | Ok (robust, report) ->
            (robust.Resim.outcome, Resim_sample.Sample.report_to_json report)
        | Error failure ->
            Alcotest.failf "%s: sampled: %s" name
              (Resim.failure_to_string failure)
      in
      let describe (outcome : Resim.outcome) =
        ( stats_dump outcome.stats,
          Format.asprintf "%a" Resim_trace.Summary.pp outcome.trace_summary,
          outcome.bits_per_instruction )
      in
      let same label (a : Resim.outcome) (b : Resim.outcome) =
        let a_stats, a_summary, a_bits = describe a
        and b_stats, b_summary, b_bits = describe b in
        check string (label ^ ": stats") a_stats b_stats;
        check string (label ^ ": trace summary") a_summary b_summary;
        check (Alcotest.float 0.0) (label ^ ": bits/instr") a_bits b_bits
      in
      let array_sampled, array_report = sampled array in
      let pulled_sampled, pulled_report = pulled sampled in
      check bool "several intervals" true
        (String.length array_report > 0
        && array_sampled.Resim.trace_summary.total = Array.length records);
      same "sampled" array_sampled pulled_sampled;
      check string "sample report" array_report pulled_report;
      let checkpoint =
        match Resim.run ~max_cycles:50_000L array with
        | Ok { Resim.resume = Some checkpoint; _ } -> checkpoint
        | Ok _ -> Alcotest.failf "%s: the budget did not truncate" name
        | Error failure ->
            Alcotest.failf "%s: %s" name (Resim.failure_to_string failure)
      in
      let resumed trace =
        (robust_exn (name ^ ": resume") (Resim.run ~resume:checkpoint trace))
          .Resim.outcome
      in
      let full = (robust_exn name (Resim.run array)).Resim.outcome in
      let array_resumed = resumed array in
      same "resumed array = unbounded" full array_resumed;
      same "resumed stream = resumed array" array_resumed (pulled resumed))

(* The CLI face of the differential: [--stream] is accepted and changes
   nothing — [simulate --stream -t F] prints the report [simulate -t F]
   prints, bits/instr line included, and writes the same metrics
   document; only the "wrote metrics" line differs. *)
let test_cli_stream_report_matches_file () =
  let cli = Filename.quote Test_sample.cli in
  let tmp suffix = Filename.temp_file "resim_frontier" suffix in
  let trace = tmp ".rtr" and out = tmp ".out" in
  let metrics = [| tmp ".json"; tmp ".json" |] in
  let report i args =
    check int args 0
      (Sys.command
         (Printf.sprintf "%s simulate %s -t %s --metrics %s > %s" cli args
            (Filename.quote trace)
            (Filename.quote metrics.(i))
            (Filename.quote out)));
    List.filter
      (fun line -> not (String.starts_with ~prefix:"wrote metrics" line))
      (String.split_on_char '\n' (read_bytes out))
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter Sys.remove (trace :: out :: Array.to_list metrics))
    (fun () ->
      check int "tracegen" 0
        (Sys.command
           (Printf.sprintf "%s tracegen -k gzip -s 512 -o %s > /dev/null" cli
              (Filename.quote trace)));
      let file = report 0 "" in
      let streamed = report 1 "--stream" in
      check bool "the report has a bits/instr line" true
        (List.exists (String.starts_with ~prefix:"trace encoding: ") file);
      check (Alcotest.list string) "stdout" file streamed;
      check string "metrics document" (read_bytes metrics.(0))
        (read_bytes metrics.(1)))

(* ------------------------------------------------------------------- *)
(* Chunked cursors: absolute offsets and record-for-record agreement
   with the in-memory cursor on every corruption class.                 *)

(* Records until the first structured error; errors are sticky, so the
   stream stops there. *)
let drain_cursor cursor =
  let rec loop acc =
    if not (Codec.Cursor.has_next cursor) then (List.rev acc, None)
    else
      match Codec.Cursor.next_result cursor with
      | Ok record -> loop (record :: acc)
      | Error e -> (List.rev acc, Some e)
  in
  loop []

let in_memory_view data =
  match Codec.Cursor.of_string_result data with
  | Error e -> ([], Some e)
  | Ok cursor -> drain_cursor cursor

let chunked_view ~chunk data =
  with_tmp ~suffix:".rtr" (fun path ->
      write_bytes path data;
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          match Codec.Cursor.of_channel_result ~chunk ic with
          | Error e -> ([], Some e)
          | Ok cursor -> drain_cursor cursor))

let assert_views_agree ~label ~chunk data =
  let mem_records, mem_error = in_memory_view data in
  let chk_records, chk_error = chunked_view ~chunk data in
  check int (label ^ ": record count") (List.length mem_records)
    (List.length chk_records);
  check bool (label ^ ": records agree") true (mem_records = chk_records);
  match (mem_error, chk_error) with
  | None, None -> ()
  | Some m, Some c ->
      check string (label ^ ": error code") m.Codec.error_code c.Codec.error_code;
      (* The chunked cursor must report the same ABSOLUTE file offset
         the in-memory cursor sees, not an offset within its refill
         buffer. *)
      check int (label ^ ": absolute byte offset") m.byte_offset c.byte_offset
  | Some m, None ->
      Alcotest.failf "%s: chunked cursor missed %s at %d" label m.error_code
        m.byte_offset
  | None, Some c ->
      Alcotest.failf "%s: chunked cursor invented %s at %d" label c.error_code
        c.byte_offset

let corruption_records =
  lazy
    (Synthetic.generate ~seed:11
       (Synthetic.balanced ~name:"corruptee" ~instructions:600))

let test_chunked_agrees_on_every_corruption_class () =
  let records = Lazy.force corruption_records in
  List.iter
    (fun fault ->
      List.iter
        (fun format ->
          let data = Fault_inject.apply ~seed:3 ~format fault records in
          let label =
            Printf.sprintf "%s/%s" (Fault_inject.name fault)
              (match format with Codec.Fixed -> "fixed" | Codec.Compact -> "compact")
          in
          (* chunk far smaller than the payload, so any mid-stream error
             sits many refills past the first buffer *)
          assert_views_agree ~label ~chunk:17 data)
        [ Codec.Fixed; Codec.Compact ])
    Fault_inject.all

let test_truncation_at_chunk_boundaries () =
  let records = Lazy.force corruption_records in
  let data = Codec.encode records in
  let chunk = 64 in
  List.iter
    (fun cut ->
      if cut > 0 && cut < String.length data then
        let truncated = String.sub data 0 cut in
        assert_views_agree
          ~label:(Printf.sprintf "cut at %d" cut)
          ~chunk truncated)
    [ chunk - 1;
      chunk;
      chunk + 1;
      (2 * chunk) - 1;
      2 * chunk;
      (2 * chunk) + 1;
      String.length data - 1 ]

let test_error_offset_is_past_first_chunk () =
  (* Directly pin the absolute-offset property: truncate well past the
     first refill and demand the reported offset land beyond it. *)
  let records = Lazy.force corruption_records in
  let data = Codec.encode records in
  let chunk = 64 in
  let cut = min (String.length data - 1) (7 * chunk) in
  let _, error = chunked_view ~chunk (String.sub data 0 cut) in
  match error with
  | None -> Alcotest.fail "truncated stream decoded cleanly"
  | Some e ->
      check string "truncation code" "RSM-T002" e.Codec.error_code;
      check bool
        (Printf.sprintf "offset %d beyond first chunk %d" e.byte_offset chunk)
        true
        (e.byte_offset > chunk)

(* Degraded decode on a chunked cursor. The salvage loop drained over a
   file read [chunk] bytes at a time must yield what
   [Codec.decode_degraded] salvages from the whole string: the same
   records, the same faults (code, record offset, and the byte offset
   in their context) and the same final byte offset — on every
   corruption class, for chunks of 1 to 17 bytes. A resync trial makes
   two maximal records (22 bytes) resident first, so at these chunk
   sizes every resync crosses refills. *)
let salvage cursor =
  let faults = ref [] in
  let fault f = faults := f :: !faults in
  let rec drain acc =
    match Codec.Cursor.next_salvaged cursor ~fault with
    | Some record -> drain (record :: acc)
    | None -> (List.rev acc, List.rev !faults, Codec.Cursor.byte_offset cursor)
  in
  drain []

let test_chunked_degraded_matches_in_memory () =
  let records = Lazy.force corruption_records in
  let resynced = ref 0 in
  let fault_lines faults = List.map Fault.to_string faults in
  List.iter
    (fun fault ->
      List.iter
        (fun format ->
          List.iter
            (fun seed ->
              let data = Fault_inject.apply ~seed ~format fault records in
              let label =
                Printf.sprintf "%s/%s/seed %d" (Fault_inject.name fault)
                  (match format with
                  | Codec.Fixed -> "fixed"
                  | Codec.Compact -> "compact")
                  seed
              in
              match Codec.decode_degraded data with
              | Error e ->
                  (* An unusable header fails the chunked open alike. *)
                  List.iter
                    (fun chunk ->
                      match chunked_view ~chunk data with
                      | [], Some c ->
                          check string (label ^ ": header error") e.error_code
                            c.Codec.error_code
                      | _ -> Alcotest.failf "%s: chunked header opened" label)
                    [ 1; 17 ]
              | Ok (expected, _, expected_faults) ->
                  let cursor =
                    match Codec.Cursor.of_string_result data with
                    | Ok cursor -> cursor
                    | Error e ->
                        Alcotest.failf "%s: %s" label (Codec.error_to_string e)
                  in
                  let in_memory = salvage cursor in
                  let mem_records, mem_faults, _ = in_memory in
                  check bool (label ^ ": drain = decode_degraded") true
                    (mem_records = Array.to_list expected);
                  check (Alcotest.list string) (label ^ ": faults")
                    (fault_lines expected_faults) (fault_lines mem_faults);
                  (match expected_faults with
                  | first :: _ when Array.length expected > first.Fault.offset
                    ->
                      incr resynced
                  | _ -> ());
                  with_tmp ~suffix:".rtr" (fun path ->
                      write_bytes path data;
                      for chunk = 1 to 17 do
                        let ic = open_in_bin path in
                        Fun.protect
                          ~finally:(fun () -> close_in_noerr ic)
                          (fun () ->
                            match Codec.Cursor.of_channel_result ~chunk ic with
                            | Error e ->
                                Alcotest.failf "%s: chunk %d: %s" label chunk
                                  (Codec.error_to_string e)
                            | Ok cursor ->
                                let chk_records, chk_faults, chk_end =
                                  salvage cursor
                                in
                                let _, _, mem_end = in_memory in
                                let at =
                                  Printf.sprintf "%s: chunk %d" label chunk
                                in
                                check int (at ^ ": record count")
                                  (List.length mem_records)
                                  (List.length chk_records);
                                check bool (at ^ ": records") true
                                  (mem_records = chk_records);
                                check (Alcotest.list string) (at ^ ": faults")
                                  (fault_lines mem_faults)
                                  (fault_lines chk_faults);
                                check int (at ^ ": final byte offset") mem_end
                                  chk_end)
                      done))
            [ 1; 2; 3 ])
        [ Codec.Fixed; Codec.Compact ])
    Fault_inject.all;
  check bool "some resync resumed decoding mid-stream" true (!resynced > 0)

(* ------------------------------------------------------------------- *)
(* Streaming encoder: push through a bounded buffer, read back the
   streamed header, decode exactly the pushed records.                  *)

let test_encoder_streamed_roundtrip () =
  let records =
    Synthetic.generate ~seed:23
      (Synthetic.balanced ~name:"encoder" ~instructions:500)
  in
  List.iter
    (fun format ->
      with_tmp ~suffix:".rtr" (fun path ->
          let oc = open_out_bin path in
          let encoder = Codec.Encoder.to_channel ~format ~flush_bytes:32 oc in
          Array.iter (Codec.Encoder.push encoder) records;
          check int "pushed" (Array.length records)
            (Codec.Encoder.pushed encoder);
          Codec.Encoder.close encoder;
          Codec.Encoder.close encoder (* idempotent *);
          close_out oc;
          let cursor =
            match Codec.Cursor.of_string_result (read_bytes path) with
            | Ok cursor -> cursor
            | Error e -> Alcotest.failf "header: %s" (Codec.error_to_string e)
          in
          check bool "streamed header" true (Codec.Cursor.streamed cursor);
          check bool "format preserved" true (Codec.Cursor.format cursor = format);
          let decoded, error = drain_cursor cursor in
          (match error with
          | None -> ()
          | Some e -> Alcotest.failf "decode: %s" (Codec.error_to_string e));
          (* has_next is exact on streamed cursors: end padding never
             reads as one more record *)
          check int "exact record count" (Array.length records)
            (List.length decoded);
          check bool "records round-trip" true
            (Array.to_list records = decoded);
          (* and the pull-stream face agrees *)
          match Stream.open_file ~chunk:96 path with
          | Error e -> Alcotest.failf "open_file: %s" (Codec.error_to_string e)
          | Ok stream ->
              check bool "stream face round-trips" true
                (stream_records stream = records)))
    [ Codec.Fixed; Codec.Compact ]

let test_read_file_missing_is_typed () =
  let path = "/nonexistent/resim-frontier-missing.rtr" in
  (match Codec.read_file_result path with
  | Ok _ -> Alcotest.fail "read_file_result succeeded on a missing file"
  | Error e -> check string "read_file_result code" "RSM-T009" e.Codec.error_code);
  (match Stream.open_file path with
  | Ok _ -> Alcotest.fail "open_file succeeded on a missing file"
  | Error e -> check string "open_file code" "RSM-T009" e.Codec.error_code);
  (* and read_file raises the typed Corrupt, never a raw Sys_error *)
  match Codec.read_file path with
  | _ -> Alcotest.fail "read_file succeeded on a missing file"
  | exception Codec.Corrupt _ -> ()

(* ------------------------------------------------------------------- *)
(* Shards: block-safe splitting, expansion, concatenating stream.       *)

let shard_records =
  (* A kernel trace, so real wrong-path blocks cross naive cut points. *)
  lazy (snd (List.hd (Lazy.force Test_event.kernel_records)))

let with_shards ~records_per_shard records f =
  let stem = Filename.temp_file "resim_frontier_shard" "" in
  Sys.remove stem;
  let paths =
    Codec.Shard.write ~format:Codec.Fixed ~records_per_shard ~stem records
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) paths)
    (fun () -> f ~stem paths)

let test_shard_roundtrip_and_lint () =
  let records = Lazy.force shard_records in
  with_shards ~records_per_shard:100 records (fun ~stem paths ->
      check bool "several shards" true (List.length paths > 1);
      (* every shard is self-describing: lints clean alone, and never
         starts inside a wrong-path block *)
      List.iter
        (fun path ->
          check bool
            (path ^ " lints clean")
            true
            (Trace_check.clean (Trace_check.lint_file path));
          let shard, _ = Codec.read_file path in
          if Array.length shard > 0 then
            check bool
              (path ^ " starts untagged")
              false shard.(0).Record.wrong_path)
        paths;
      (* expansion: from the bare stem and from any member *)
      check bool "expand stem" true (Codec.Shard.expand stem = Some paths);
      check bool "expand member" true
        (Codec.Shard.expand (List.nth paths 1) = Some paths);
      (* concatenating stream reproduces the original trace *)
      (match Stream.open_sharded paths with
      | Error e -> Alcotest.failf "open_sharded: %s" (Codec.error_to_string e)
      | Ok stream ->
          check bool "sharded concat round-trips" true
            (stream_records stream = records));
      match Stream.open_path stem with
      | Error e -> Alcotest.failf "open_path: %s" (Codec.error_to_string e)
      | Ok stream ->
          check bool "open_path finds the set" true
            (stream_records stream = records))

let test_shard_empty_trace () =
  with_shards ~records_per_shard:10 [||] (fun ~stem:_ paths ->
      check int "one empty shard" 1 (List.length paths);
      let records, _ = Codec.read_file (List.hd paths) in
      check int "empty" 0 (Array.length records))

(* ------------------------------------------------------------------- *)
(* Multicore: a core fed by a truncated stream reports `Truncated and
   carries the fault; healthy cores still drain.                        *)

let test_multicore_truncated_stream () =
  let records =
    Synthetic.generate ~seed:3
      (Synthetic.balanced ~name:"cores" ~instructions:400)
  in
  let data = Codec.encode records in
  let truncated = String.sub data 0 (String.length data - 3) in
  with_tmp ~suffix:".rtr" (fun path ->
      write_bytes path truncated;
      let stream =
        match Stream.open_file ~chunk:64 path with
        | Ok stream -> stream
        | Error e -> Alcotest.failf "open_file: %s" (Codec.error_to_string e)
      in
      let specs =
        [ { System.name = "healthy";
            feed = Resim.Records records;
            config = Config.reference };
          { System.name = "starved";
            feed = Resim.Pull (fun () -> Stream.next stream);
            config = Config.reference } ]
      in
      let system = System.create specs in
      check bool "truncated stream is never `Finished" true
        (System.run system = `Truncated);
      match System.results system with
      | [ healthy; starved ] ->
          check bool "healthy core drains" true healthy.System.drained;
          check bool "healthy core has no fault" true
            (healthy.System.fault = None);
          check bool "starved core did not drain" false
            starved.System.drained;
          (match starved.System.fault with
          | None -> Alcotest.fail "starved core carries no fault"
          | Some fault ->
              check string "fault code" "RSM-T002" fault.Fault.code)
      | results ->
          Alcotest.failf "expected 2 core results, got %d"
            (List.length results))

let test_multicore_stream_feed_matches_records_feed () =
  let records =
    Synthetic.generate ~seed:9
      (Synthetic.balanced ~name:"twin" ~instructions:300)
  in
  with_tmp ~suffix:".rtr" (fun path ->
      Codec.write_file ~format:Codec.Fixed path records;
      let stream =
        match Stream.open_file ~chunk:128 path with
        | Ok stream -> stream
        | Error e -> Alcotest.failf "open_file: %s" (Codec.error_to_string e)
      in
      let specs =
        [ { System.name = "array";
            feed = Resim.Records records;
            config = Config.reference };
          { System.name = "stream";
            feed = Resim.Pull (fun () -> Stream.next stream);
            config = Config.reference } ]
      in
      let system = System.create specs in
      check bool "both drain" true (System.run system = `Finished);
      match System.results system with
      | [ array; stream_result ] ->
          check string "per-core stats identical"
            (stats_dump array.System.stats)
            (stats_dump stream_result.System.stats)
      | _ -> Alcotest.fail "expected 2 core results")

(* ------------------------------------------------------------------- *)
(* Adapters: grammar acceptance, typed RSM-A diagnostics, round-trip
   through the codec, lint-clean synthesis.                             *)

(* Drain an adapter into an array, or its first error. *)
let drain_adapter adapter =
  let rec collect acc =
    match Adapter.next_result adapter with
    | Ok (Some record) -> collect (record :: acc)
    | Ok None -> Ok (Array.of_list (List.rev acc))
    | Error error -> Error error
  in
  collect []

let adapt ?(format = Adapter.Text) source =
  drain_adapter (Adapter.of_string ~format ~file:"test.trc" source)

let adapt_exn ?format label source =
  match adapt ?format source with
  | Ok records -> records
  | Error e -> Alcotest.failf "%s: %s" label (Adapter.error_to_string e)

let expect_error ?format label expected_code ?line ?col source =
  match adapt ?format source with
  | Ok _ -> Alcotest.failf "%s: expected %s, got records" label expected_code
  | Error e ->
      check string (label ^ ": code") expected_code e.Adapter.code;
      Option.iter (fun l -> check int (label ^ ": line") l e.Adapter.line) line;
      Option.iter (fun c -> check int (label ^ ": col") c e.Adapter.col) col

let test_text_tolerant_lexing () =
  (* CRLF endings, comments, blank lines, trailing whitespace: all
     accepted; a back-branch makes the trace non-trivial. *)
  let source =
    "# header comment\r\n\
     1000 0 1 2 3\r\n\
     \r\n\
     1004 1 4 1 2   \n\
     1000 2 5 4 -1\t\n"
  in
  let records = adapt_exn "tolerant" source in
  let correct =
    Array.to_list records |> List.filter (fun r -> not r.Record.wrong_path)
  in
  check int "three instructions" 3 (List.length correct);
  (* the 1004 -> 1000 discontinuity is a taken conditional branch *)
  check bool "back edge inferred as branch" true
    (List.exists
       (fun r ->
         match r.Record.payload with
         | Record.Branch { kind = Resim_isa.Opcode.Cond; taken = true; target }
           ->
             (* targets are word indices: pc lsr 2 *)
             target = 0x1000 lsr 2
         | _ -> false)
       correct)

let test_text_not_taken_reclassification () =
  (* A PC that once branched and later falls through must produce a
     NOT-taken conditional, so directions really interleave. *)
  let buffer = Buffer.create 256 in
  for _ = 1 to 3 do
    Buffer.add_string buffer "1000 0 1 2 3\n1004 0 2 1 1\n"
    (* 1004 jumps back: taken branch at 1004 *)
  done;
  Buffer.add_string buffer "1000 0 1 2 3\n1004 0 2 1 1\n1008 0 3 2 1\n";
  let records = adapt_exn "fallthrough" (Buffer.contents buffer) in
  check bool "not-taken conditional emitted" true
    (Array.exists
       (fun r ->
         match r.Record.payload with
         | Record.Branch { kind = Resim_isa.Opcode.Cond; taken = false; _ } ->
             not r.Record.wrong_path
         | _ -> false)
       records)

let test_adapter_rsm_a_catalog () =
  expect_error "empty input" "RSM-A006" "";
  expect_error "only comments" "RSM-A006" "# nothing\n\n# here\n";
  expect_error "field count" "RSM-A001" ~line:1 "1000 0 1 2\n";
  expect_error "not a number" "RSM-A002" ~line:2 ~col:6 "1000 0 1 2 3\n1004 x 1 2 3\n";
  expect_error "op out of domain" "RSM-A003" ~line:1 ~col:6 "1000 9 1 2 3\n";
  expect_error "register out of domain" "RSM-A003" "1000 0 -2 2 3\n";
  expect_error "overlong line" "RSM-A004" ~line:1
    (String.make (Adapter.default_config.max_line_bytes + 16) 'a' ^ "\n");
  (* RISC-V profile *)
  expect_error ~format:Adapter.Riscv "compressed word" "RSM-A005"
    "1000 00000001\n";
  expect_error ~format:Adapter.Riscv "load without mem" "RSM-A001"
    "1000 00052503\n"

let test_adapter_errors_are_sticky () =
  let adapter =
    Adapter.of_string ~format:Adapter.Text ~file:"sticky.trc"
      "1000 0 1 2 3\n1004 0 2 1 1\n1008 9 1 2 3\n"
  in
  (* one line of lookahead: records before the window reaching the bad
     line still come out *)
  check bool "first record ok" true
    (match Adapter.next_result adapter with Ok (Some _) -> true | _ -> false);
  let rec first_error () =
    match Adapter.next_result adapter with
    | Ok (Some _) -> first_error ()
    | Ok None -> Alcotest.fail "malformed line adapted"
    | Error e -> e
  in
  let first = first_error () in
  check string "error names the bad line" "RSM-A003" first.Adapter.code;
  check int "error line" 3 first.Adapter.line;
  (match Adapter.next_result adapter with
  | Error e -> check string "same error again" first.Adapter.code e.Adapter.code
  | Ok _ -> Alcotest.fail "error was not sticky");
  (* the pull face raises the typed fault with the RSM-A code *)
  let adapter2 =
    Adapter.of_string ~format:Adapter.Text ~file:"sticky.trc" "1000 9 1 2 3\n"
  in
  let pull = Adapter.pull_exn adapter2 in
  match pull () with
  | _ -> Alcotest.fail "pull_exn returned on a malformed line"
  | exception Fault.Trace_fault f -> check string "pull fault" "RSM-A003" f.Fault.code

let test_adapter_rejects_bad_line_limit () =
  let adapt max_line_bytes =
    Adapter.of_string
      ~config:{ Adapter.default_config with max_line_bytes }
      ~format:Adapter.Text "1000 0 1 2 3\n"
  in
  List.iter
    (fun max_line_bytes ->
      match adapt max_line_bytes with
      | _ -> Alcotest.failf "max_line_bytes %d accepted" max_line_bytes
      | exception Invalid_argument _ -> ())
    [ -1; min_int; Sys.max_string_length - 1; max_int ];
  (* the smallest limit stays usable: every non-empty line is A004 *)
  match Adapter.next_result (adapt 0) with
  | Error e ->
      check string "zero limit" "RSM-A004" e.Adapter.code;
      check int "zero limit col" 1 e.Adapter.col
  | Ok _ -> Alcotest.fail "a 12-byte line passed a 0-byte limit"

let riscv_loop_source =
  (* A tight RV32 loop: lw a0,0(a1); mul a0,a1,a2; sw a0,0(a2);
     bne x12,x13,-12 — the branch is taken (back to 0x1000) 5 times,
     then falls through to a final nop. *)
  let buffer = Buffer.create 512 in
  for i = 0 to 5 do
    Buffer.add_string buffer
      (Printf.sprintf "1000 0005a503 mem %x\n" (0x8000 + (8 * i)));
    Buffer.add_string buffer "1004 02c58533\n";
    Buffer.add_string buffer
      (Printf.sprintf "1008 00a62023 mem %x\n" (0x9000 + (8 * i)));
    Buffer.add_string buffer "100c fed61ae3\n"
  done;
  Buffer.add_string buffer "1010 00000013\n";
  Buffer.contents buffer

let test_riscv_decode_classes () =
  let records = adapt_exn ~format:Adapter.Riscv "riscv loop" riscv_loop_source in
  let correct =
    Array.to_list records |> List.filter (fun r -> not r.Record.wrong_path)
  in
  let count predicate = List.length (List.filter predicate correct) in
  check int "loads" 6
    (count (fun r ->
         match r.Record.payload with
         | Record.Memory { is_load = true; _ } -> true
         | _ -> false));
  check int "stores" 6
    (count (fun r ->
         match r.Record.payload with
         | Record.Memory { is_load = false; _ } -> true
         | _ -> false));
  check int "multiplies" 6
    (count (fun r ->
         match r.Record.payload with
         | Record.Other { op_class = Record.Mult } -> true
         | _ -> false));
  check bool "taken and not-taken conditionals" true
    (let taken, fallthrough =
       List.fold_left
         (fun (t, f) r ->
           match r.Record.payload with
           | Record.Branch { kind = Resim_isa.Opcode.Cond; taken; _ } ->
               if taken then (t + 1, f) else (t, f + 1)
           | _ -> (t, f))
         (0, 0) correct
     in
     taken = 5 && fallthrough = 1)

let test_adapted_streams_lint_clean () =
  List.iter
    (fun (label, format, source) ->
      let adapter = Adapter.of_string ~format ~file:"lint.trc" source in
      let report = Trace_check.lint_adapter adapter in
      check bool (label ^ " lints clean") true (Trace_check.clean report))
    [ ("text", Adapter.Text,
       "1000 0 1 2 3\n1004 0 2 1 1\n1000 0 1 2 3\n1004 0 2 1 1\n1008 0 3 2 1\n");
      ("riscv", Adapter.Riscv, riscv_loop_source) ]

(* Adapted streams carry synthesized wrong-path blocks once the
   predictor mispredicts; the engine must replay them as wrong-path
   fetches. *)
let test_adapter_wrong_path_reaches_engine () =
  let buffer = Buffer.create 4096 in
  (* alternate directions at one branch PC to defeat the predictor *)
  for i = 0 to 63 do
    Buffer.add_string buffer "1000 0 1 2 3\n";
    if i mod 2 = 0 then Buffer.add_string buffer "1004 0 2 1 1\n"
      (* next line loops back: taken *)
    else Buffer.add_string buffer "1004 0 2 1 1\n1008 0 3 2 1\n"
    (* fall-through: not taken *)
  done;
  let adapter =
    Adapter.of_string ~format:Adapter.Text ~file:"flip.trc"
      (Buffer.contents buffer)
  in
  let records =
    match drain_adapter adapter with
    | Ok records -> records
    | Error e -> Alcotest.failf "adapt: %s" (Adapter.error_to_string e)
  in
  let stats = Adapter.stats adapter in
  check bool "adapter saw mispredicts" true (stats.Adapter.mispredicted > 0);
  check bool "wrong-path records synthesized" true (stats.Adapter.wrong_path > 0);
  check int "tagged records in stream" stats.Adapter.wrong_path
    (Array.length (Array.of_seq
       (Seq.filter (fun r -> r.Record.wrong_path)
          (Array.to_seq records))));
  let robust =
    robust_exn "adapted simulate" (Resim.run (Records records))
  in
  check bool "engine fetched down the wrong path" true
    (Stats.get Stats.fetched_wrong_path robust.outcome.stats > 0L)

(* Round-trip property: adapt -> encode -> decode -> re-adapt agree. *)
let text_trace_gen =
  QCheck.Gen.(
    let line =
      map
        (fun (pc, op, (dst, src1, src2)) ->
          Printf.sprintf "%x %d %d %d %d" pc op dst src1 src2)
        (triple (int_bound 0xFFFF) (int_bound 2)
           (triple (int_range (-1) 31) (int_range (-1) 31) (int_range (-1) 31)))
    in
    map (String.concat "\n") (list_size (int_range 1 120) line))

let adapter_roundtrip =
  QCheck.Test.make ~name:"adapt -> encode -> decode -> re-adapt is identity"
    ~count:100
    (QCheck.make ~print:(fun s -> s) text_trace_gen)
    (fun source ->
      match adapt source with
      | Error _ -> QCheck.assume_fail ()
      | Ok records ->
          let again =
            match adapt source with
            | Ok r -> r
            | Error _ -> [||]
          in
          let decode format =
            fst (Result.get_ok (Codec.decode_result (Codec.encode ~format records)))
          in
          let decoded_fixed = decode Codec.Fixed in
          let decoded_compact = decode Codec.Compact in
          records = again
          && records = decoded_fixed
          && records = decoded_compact
          && Trace_check.clean (Trace_check.lint_records records))

(* ------------------------------------------------------------------- *)
(* Differential: the window scanner against the string-per-line parser
   it replaced. [String_lines] is that adapter, kept as the oracle: one
   string per line ([input_line] / [split_on_char]), [tokenize]'s list
   of (field, column) pairs and [int_of_string] on every field, with
   [tokenize], [parse_text] and [parse_riscv] verbatim. Records, stats
   and the first error must be identical on every input.               *)

module String_lines = struct
  module Opcode = Resim_isa.Opcode
  module Predictor = Resim_bpred.Predictor

  type format = Adapter.format = Text | Riscv

  type error = Adapter.error = {
    code : string;
    file : string;
    line : int;
    col : int;
    reason : string;
  }

  exception Bad_line of error

  type config = Adapter.config = {
    predictor : Predictor.config;
    wrong_path_limit : int;
    max_line_bytes : int;
  }

  type stats = Adapter.stats = {
    lines : int;
    instructions : int;
    wrong_path : int;
    mispredicted : int;
  }

  let default_config = Adapter.default_config
  let format_to_string = Adapter.format_to_string
  let pc_mask = (1 lsl 30) - 1
  let index_of_pc pc = (pc lsr 2) land pc_mask
  let addr_mask = (1 lsl 32) - 1

  (* One parsed line, before branch classification (which needs one line
     of lookahead: taken-ness is inferred from the next PC). *)
  type shape =
    | Plain of Record.op_class
    | Mem of { is_load : bool; address : int }
    | Ctl of { kind : Opcode.branch_kind; target : int option }

  type parsed = {
    index : int;
    dest : int;
    src1 : int;
    src2 : int;
    shape : shape;
  }

  (* --- tokenizing ----------------------------------------------------- *)

  (* Split on runs of spaces/tabs, keeping 1-based start columns for
     diagnostics. A trailing '\r' (CRLF input) and trailing whitespace are
     tolerated silently. *)
  let tokenize line =
    let line =
      let n = String.length line in
      if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line
    in
    let n = String.length line in
    let out = ref [] in
    let i = ref 0 in
    while !i < n do
      while !i < n && (line.[!i] = ' ' || line.[!i] = '\t') do incr i done;
      if !i < n then begin
        let start = !i in
        while !i < n && line.[!i] <> ' ' && line.[!i] <> '\t' do incr i done;
        out := (String.sub line start (!i - start), start + 1) :: !out
      end
    done;
    List.rev !out

  let bad ~file ~line ~col ~code fmt =
    Printf.ksprintf
      (fun reason -> raise (Bad_line { code; file; line; col; reason }))
      fmt

  let parse_hex ~file ~line ~what (token, col) =
    let literal =
      if String.length token > 1 && (token.[1] = 'x' || token.[1] = 'X')
         && token.[0] = '0'
      then token
      else "0x" ^ token
    in
    match int_of_string_opt literal with
    | Some v when v >= 0 -> v
    | Some v -> bad ~file ~line ~col ~code:"RSM-A003" "%s %d is negative" what v
    | None ->
        bad ~file ~line ~col ~code:"RSM-A002" "%s %S is not a hex number" what
          token

  let parse_int ~file ~line ~what (token, col) =
    match int_of_string_opt token with
    | Some v -> v
    | None ->
        bad ~file ~line ~col ~code:"RSM-A002" "%s %S is not a number" what token

  (* Foreign register fields: -1 means "none" (our register 0); larger
     files than ours fold into the 32-register namespace. *)
  let parse_reg ~file ~line ~what token =
    let v = parse_int ~file ~line ~what token in
    if v < -1 then
      bad ~file ~line ~col:(snd token) ~code:"RSM-A003"
        "%s register %d is out of domain (minimum -1)" what v
    else if v = -1 then 0
    else v mod Resim_isa.Reg.count

  (* --- text profile ---------------------------------------------------
     <PC> <op> <dst> <src1> <src2>
     PC hex (0x optional), op 0=alu 1=mult 2=divide, registers decimal
     with -1 = none. Branches are not marked in the file: an instruction
     whose successor PC is not PC+4 is reclassified as a taken
     conditional branch targeting the successor. *)

  let parse_text ~file ~line tokens =
    match tokens with
    | [ pc; op; dst; s1; s2 ] ->
        let pc = parse_hex ~file ~line ~what:"PC" pc in
        let opv = parse_int ~file ~line ~what:"op" op in
        let op_class =
          match opv with
          | 0 -> Record.Alu
          | 1 -> Record.Mult
          | 2 -> Record.Divide
          | n ->
              bad ~file ~line ~col:(snd op) ~code:"RSM-A003"
                "op %d is out of domain (0=alu 1=mult 2=divide)" n
        in
        { index = index_of_pc pc;
          dest = parse_reg ~file ~line ~what:"dst" dst;
          src1 = parse_reg ~file ~line ~what:"src1" s1;
          src2 = parse_reg ~file ~line ~what:"src2" s2;
          shape = Plain op_class }
    | _ ->
        bad ~file ~line ~col:1 ~code:"RSM-A001"
          "expected 5 fields (<PC> <op> <dst> <src1> <src2>), got %d"
          (List.length tokens)

  (* --- RISC-V instruction-trace profile -------------------------------
     <PC> <INSN> [mem <ADDR>]
     PC and the 32-bit instruction word in hex; loads/stores carry their
     effective address in the optional "mem" operand. Uncompressed
     RV32/RV64 only (insn[1:0] must be 11). *)

  let b_immediate insn =
    let v =
      (((insn lsr 31) land 0x1) lsl 12)
      lor (((insn lsr 7) land 0x1) lsl 11)
      lor (((insn lsr 25) land 0x3f) lsl 5)
      lor (((insn lsr 8) land 0xf) lsl 1)
    in
    if v land (1 lsl 12) <> 0 then v - (1 lsl 13) else v

  let j_immediate insn =
    let v =
      (((insn lsr 31) land 0x1) lsl 20)
      lor (((insn lsr 12) land 0xff) lsl 12)
      lor (((insn lsr 20) land 0x1) lsl 11)
      lor (((insn lsr 21) land 0x3ff) lsl 1)
    in
    if v land (1 lsl 20) <> 0 then v - (1 lsl 21) else v

  let parse_riscv ~file ~line tokens =
    let pc_tok, insn_tok, mem =
      match tokens with
      | [ pc; insn ] -> (pc, insn, None)
      | [ pc; insn; (("mem", _) as kw); addr ] -> (pc, insn, Some (kw, addr))
      | _ ->
          bad ~file ~line ~col:1 ~code:"RSM-A001"
            "expected <PC> <INSN> [mem <ADDR>], got %d fields"
            (List.length tokens)
    in
    let pc = parse_hex ~file ~line ~what:"PC" pc_tok in
    let insn = parse_hex ~file ~line ~what:"instruction" insn_tok in
    if insn > 0xffff_ffff then
      bad ~file ~line ~col:(snd insn_tok) ~code:"RSM-A005"
        "instruction word %x wider than 32 bits" insn;
    if insn land 0x3 <> 0x3 then
      bad ~file ~line ~col:(snd insn_tok) ~code:"RSM-A005"
        "compressed or invalid instruction word %08x (insn[1:0] must be 11)"
        insn;
    let address =
      match mem with
      | None -> None
      | Some (_, addr) ->
          Some (parse_hex ~file ~line ~what:"mem address" addr land addr_mask)
    in
    let opcode = insn land 0x7f in
    let rd = (insn lsr 7) land 0x1f in
    let funct3 = (insn lsr 12) land 0x7 in
    let rs1 = (insn lsr 15) land 0x1f in
    let rs2 = (insn lsr 20) land 0x1f in
    let funct7 = (insn lsr 25) land 0x7f in
    let index = index_of_pc pc in
    let require_mem what =
      match address with
      | Some a -> a
      | None ->
          bad ~file ~line ~col:1 ~code:"RSM-A001" "%s line is missing 'mem <ADDR>'"
            what
    in
    let link r = r = 1 || r = 5 in
    let plain ?(dest = rd) ?(src1 = rs1) ?(src2 = rs2) shape =
      { index; dest; src1; src2; shape }
    in
    match opcode with
    | 0x63 ->
        (* conditional branch: static target from the B-type immediate *)
        plain ~dest:0
          (Ctl { kind = Cond; target = Some (index_of_pc (pc + b_immediate insn)) })
    | 0x6f ->
        let kind : Opcode.branch_kind = if link rd then Call else Jump in
        plain ~src1:0 ~src2:0
          (Ctl { kind; target = Some (index_of_pc (pc + j_immediate insn)) })
    | 0x67 ->
        let kind : Opcode.branch_kind =
          if (not (link rd)) && link rs1 then Ret
          else if link rd then Call
          else Indirect
        in
        plain ~src2:0 (Ctl { kind; target = None })
    | 0x03 -> plain ~src2:0 (Mem { is_load = true; address = require_mem "load" })
    | 0x23 ->
        plain ~dest:0 (Mem { is_load = false; address = require_mem "store" })
    | 0x33 when funct7 = 1 ->
        plain (Plain (if funct3 < 4 then Record.Mult else Record.Divide))
    | _ -> plain (Plain Record.Alu)

  (* --- streaming adapter ----------------------------------------------
     Pulls lines, classifies with one line of lookahead, and synthesizes
     wrong-path blocks by running the inferred branch stream through our
     own predictor — the same protocol as the reference generator: on a
     conditional direction mispredict, the front end runs
     [wrong_path_limit] sequential instructions down the path the
     predictor chose. *)
  type t = {
    file : string;
    format : format;
    config : config;
    read_line : unit -> string option;
    predictor : Predictor.t;
    branch_targets : (int, int) Hashtbl.t;
        (* PCs seen as taken (inferred) branches, with their last taken
           target: a later fall-through at such a PC is a not-taken
           conditional, not a plain op. O(distinct branch PCs) — the only
           state in the adapter that grows with the trace. *)
    mutable line : int;          (* lines consumed so far *)
    mutable ahead : parsed option;
    mutable primed : bool;       (* [ahead] is valid (maybe None = EOF) *)
    mutable pending : Record.t list;
    mutable instructions : int;
    mutable wrong : int;
    mutable mispredicted : int;
    mutable failed : error option;
  }

  let create ?(config = default_config) ~format ~file read_line =
    { file;
      format;
      config;
      read_line;
      predictor = Predictor.create config.predictor;
      branch_targets = Hashtbl.create 64;
      line = 0;
      ahead = None;
      primed = false;
      pending = [];
      instructions = 0;
      wrong = 0;
      mispredicted = 0;
      failed = None }

  let of_string ?config ~format ?(file = "<string>") data =
    let lines = String.split_on_char '\n' data in
    (* [split_on_char] leaves a final "" for newline-terminated input;
       drop it so it does not count as a (blank) line. *)
    let lines =
      match List.rev lines with
      | "" :: rest -> List.rev rest
      | _ -> lines
    in
    let remaining = ref lines in
    create ?config ~format ~file (fun () ->
        match !remaining with
        | [] -> None
        | line :: rest ->
            remaining := rest;
            Some line)

  let stats t =
    { lines = t.line;
      instructions = t.instructions;
      wrong_path = t.wrong;
      mispredicted = t.mispredicted }

  let blank tokens = tokens = []

  let comment = function
    | (tok, _) :: _ -> String.length tok > 0 && tok.[0] = '#'
    | [] -> false

  (* Read and parse the next instruction line, skipping blanks and
     [#] comments. Raises [Bad_line]. *)
  let rec parse_next t =
    match t.read_line () with
    | None -> None
    | Some raw ->
        t.line <- t.line + 1;
        if String.length raw > t.config.max_line_bytes then
          bad ~file:t.file ~line:t.line ~col:(t.config.max_line_bytes + 1)
            ~code:"RSM-A004" "line exceeds %d bytes" t.config.max_line_bytes;
        let tokens = tokenize raw in
        if blank tokens || comment tokens then parse_next t
        else
          Some
            (match t.format with
            | Text -> parse_text ~file:t.file ~line:t.line tokens
            | Riscv -> parse_riscv ~file:t.file ~line:t.line tokens)

  let wrong_path_block t wrong_pc =
    let limit = t.config.wrong_path_limit in
    let block =
      List.init limit (fun i ->
          { Record.pc = (wrong_pc + i) land pc_mask;
            wrong_path = true;
            dest = 0;
            src1 = 0;
            src2 = 0;
            payload = Record.Other { op_class = Record.Alu } })
    in
    t.wrong <- t.wrong + limit;
    t.pending <- t.pending @ block

  (* Classify [cur] given the lookahead [next] and emit it (plus any
     synthesized wrong-path block onto [pending]). *)
  let emit t cur next =
    let fallthrough = cur.index + 1 in
    let discontinuous =
      match next with Some n -> n.index <> fallthrough | None -> false
    in
    let payload =
      match cur.shape with
      | Mem { is_load; address } -> Record.Memory { is_load; address }
      | Plain op_class -> (
          (* Unmarked control flow (text profile): a PC break means this
             instruction transferred control — a taken conditional. A
             fall-through at a PC previously seen branching is the same
             branch not taken (otherwise every inferred branch would be
             taken and no direction could ever mispredict). *)
          match next with
          | Some n when discontinuous ->
              Hashtbl.replace t.branch_targets cur.index n.index;
              Record.Branch { kind = Opcode.Cond; taken = true; target = n.index }
          | _ -> (
              match Hashtbl.find_opt t.branch_targets cur.index with
              | Some target ->
                  Record.Branch { kind = Opcode.Cond; taken = false; target }
              | None -> Record.Other { op_class }))
      | Ctl { kind; target } ->
          let taken =
            match kind with
            | Opcode.Cond -> discontinuous
            | Jump | Call | Ret | Indirect -> true
          in
          let target =
            match next with
            | Some n when taken -> n.index
            | _ -> (
                match target with Some s -> s | None -> fallthrough)
          in
          Record.Branch { kind; taken; target }
    in
    let record =
      { Record.pc = cur.index;
        wrong_path = false;
        dest = cur.dest;
        src1 = cur.src1;
        src2 = cur.src2;
        payload }
    in
    t.instructions <- t.instructions + 1;
    (match payload with
    | Record.Branch { kind; taken; target } ->
        let prediction =
          Predictor.predict t.predictor ~pc:cur.index ~kind ~fallthrough
            ~actual_taken:taken ~actual_target:target
        in
        Predictor.update t.predictor ~pc:cur.index ~kind ~taken ~target;
        let direction_wrong = prediction.taken <> taken in
        if direction_wrong && kind = Opcode.Cond then begin
          t.mispredicted <- t.mispredicted + 1;
          let wrong_pc = if prediction.taken then target else fallthrough in
          wrong_path_block t wrong_pc
        end
    | Record.Memory _ | Record.Other _ -> ());
    record

  let next_result t =
    match t.failed with
    | Some error -> Error error
    | None -> (
        match t.pending with
        | record :: rest ->
            t.pending <- rest;
            Ok (Some record)
        | [] -> (
            try
              if not t.primed then begin
                t.ahead <- parse_next t;
                t.primed <- true;
                if t.ahead = None then
                  bad ~file:t.file ~line:1 ~col:1 ~code:"RSM-A006"
                    "no instructions in %s trace" (format_to_string t.format)
              end;
              match t.ahead with
              | None -> Ok None
              | Some cur ->
                  let next = parse_next t in
                  t.ahead <- next;
                  Ok (Some (emit t cur next))
            with Bad_line error ->
              t.failed <- Some error;
              Error error))
end

(* Inputs: valid lines of one profile, spelled every way the grammar
   accepts, mixed with comments, blanks, CRLF and LF endings and lines
   of exactly [max_line_bytes] bytes; at most one line from
   [bad_lines] (malformed, or an edge token the fast path hands to the
   fallback), anywhere; a final newline or not. A fifth of the inputs run past
   64 KiB, so their lines straddle window refills. *)
let max_line = Adapter.default_config.max_line_bytes

(* [body] padded with blanks to [width] bytes, the last one '\r' when
   [cr]. *)
let padded ~cr width body =
  let fill = width - String.length body - if cr then 1 else 0 in
  body ^ String.make fill ' ' ^ if cr then "\r" else ""

(* Spellings of [v] that parse to [v], in and out of the fast path. *)
let hex_spellings v =
  let plain = Printf.sprintf "%x" v in
  let underscored =
    if String.length plain < 2 then plain
    else
      String.sub plain 0 1 ^ "_" ^ String.sub plain 1 (String.length plain - 1)
  in
  [ plain; "0x" ^ plain; Printf.sprintf "0X%X" v; Printf.sprintf "%015x" v;
    Printf.sprintf "%016x" v; underscored; "0x" ^ underscored ]

let rec binary v =
  if v < 2 then string_of_int v else binary (v / 2) ^ string_of_int (v mod 2)

let dec_spellings v =
  [ string_of_int v; Printf.sprintf "%03d" v ]
  @
  if v < 0 then []
  else
    [ Printf.sprintf "+%d" v; Printf.sprintf "0x%x" v; Printf.sprintf "0o%o" v;
      "0b" ^ binary v; Printf.sprintf "%010d" v;
      Printf.sprintf "%d_%d" (v / 10) (v mod 10) ]

(* Fields separated by runs of blanks, maybe led and trailed by some. *)
let line_of fields =
  QCheck.Gen.(
    let blanks = frequencyl [ (8, " "); (1, "\t"); (1, " \t  ") ] in
    let* lead = frequencyl [ (6, ""); (1, " \t") ] in
    let* trail = frequencyl [ (6, ""); (1, "  ") ] in
    let* rest =
      flatten_l
        (List.map (fun f -> map (fun b -> b ^ f) blanks) (List.tl fields))
    in
    return (lead ^ List.hd fields ^ String.concat "" rest ^ trail))

let text_line pc =
  QCheck.Gen.(
    let field spellings value = value >>= fun v -> oneofl (spellings v) in
    let* pc = oneofl (hex_spellings pc) in
    let* op = field dec_spellings (int_bound 2) in
    let* regs = list_repeat 3 (field dec_spellings (int_range (-1) 40)) in
    line_of (pc :: op :: regs))

let riscv_line pc =
  QCheck.Gen.(
    let reg = int_bound 31 and link = oneofl [ 0; 1; 5; 7 ] in
    let upper = map (fun v -> v lsl 7) (int_bound ((1 lsl 25) - 1)) in
    (* (word, is a load or store): add, mul/div, lw, sw, branch, jal,
       jalr and addi, with random register and immediate fields *)
    let word ?(funct7 = 0) ?(rs2 = 0) ?(rs1 = 0) ?(funct3 = 0) ?(rd = 0) op =
      (funct7 lsl 25) lor (rs2 lsl 20) lor (rs1 lsl 15) lor (funct3 lsl 12)
      lor (rd lsl 7) lor op
    in
    let* insn, memory =
      oneof
        [ map3 (fun rd rs1 rs2 -> (word ~rs2 ~rs1 ~rd 0x33, false)) reg reg reg;
          map3
            (fun rd funct3 rs1 -> (word ~funct7:1 ~rs1 ~funct3 ~rd 0x33, false))
            reg (int_bound 7) reg;
          map2 (fun rd rs1 -> (word ~rs1 ~funct3:2 ~rd 0x03, true)) reg reg;
          map2 (fun rs1 rs2 -> (word ~rs2 ~rs1 ~funct3:2 0x23, true)) reg reg;
          map (fun bits -> (bits lor 0x63, false)) upper;
          map2
            (fun bits rd -> ((bits land lnot 0xf80) lor word ~rd 0x6f, false))
            upper link;
          map2 (fun rd rs1 -> (word ~rs1 ~rd 0x67, false)) link link;
          map (fun bits -> (bits lor 0x13, false)) upper ]
    in
    let* spelled_insn =
      oneofl
        [ Printf.sprintf "%08x" insn; Printf.sprintf "0x%08x" insn;
          Printf.sprintf "%X" insn;
          Printf.sprintf "%04x_%04x" (insn lsr 16) (insn land 0xffff) ]
    in
    (* a mem operand on any other instruction is accepted and unused *)
    let* mem =
      if memory then return true else frequencyl [ (1, true); (8, false) ]
    in
    let* operand =
      if mem then
        map
          (fun a -> [ "mem"; a ])
          (int_bound 0xfffff >>= fun a -> oneofl (hex_spellings a))
      else return []
    in
    let* pc = oneofl (hex_spellings pc) in
    line_of (pc :: spelled_insn :: operand))

let bad_lines : Adapter.format -> string list = function
  | Adapter.Text ->
      [ "1000 0 1 2"; "1000 0 1"; "1000 0 1 2 3 4"; "1000 0 1 2 3 4 5 6 7";
        "1000 x 1 2 3"; "1000 3 1 2 3"; "1000 -1 1 2 3"; "1000 0 -2 1 1";
        "1000 0 1 x 1"; "7fffffffffffffff 0 1 2 3"; "ffffffffffffffff 0 1 2 3";
        "10000000000000000 0 1 2 3"; "0x 0 1 2 3"; "g00 0 1 2 3";
        "+1000 0 1 2 3"; "0o17 0 1 2 3"; "0b1 0 0b1 0o7 +0";
        "1000 0 99999999999999999999 1 2"; "1000 0 1\r 2 3";
        "1000 0 1 2 3\r\r"; "1000 0 -5 2 -7"; "1000 0 x 2 -7"; "1000 0 -5 x 3";
        "zz 9 x y z"; "1000 9 -5 2 -7" ]
  | Adapter.Riscv ->
      [ "1000"; "1000 00000833 mem"; "1000 00000833 MEM 10";
        "1000 00000833 mem 10 20"; "1000 00000833 mem 10 20 30";
        "1000 00000833 a b c d e"; "1000 0005a503"; "1000 0b33"; "0o10 00000833";
        "1000 00a62023"; "1000 00000001"; "1000 0001"; "1000 1ffffffff";
        "1000 7fffffffffffffff"; "1000 10000000000000000";
        "1000 0005a503 mem zz"; "1000 0005a503 mem -5"; "xyz 00000833";
        "zz 00000001 MEM q";
        "zz 00000001"; "1000 00000833\r mem 10" ]

let scanner_input format =
  QCheck.Gen.(
    let valid pc =
      match format with Adapter.Text -> text_line pc | Riscv -> riscv_line pc
    in
    let* crlf = oneofl [ return false; return true; bool ] in
    let ending cr line = if cr then line ^ "\r" else line in
    let step pc =
      let* cr = crlf in
      let* next =
        frequencyl
          [ (8, pc + 4); (2, 0x1000); (1, 0x1000 + (4 * (pc land 0x3f))) ]
      in
      frequency
        [ (30, map (fun line -> (ending cr line, next)) (valid pc));
          ( 3,
            map
              (fun line -> (ending cr line, pc))
              (oneofl
                 [ ""; "   "; "\t"; "# comment"; "  # indented"; "#";
                   "# a b c d e f" ]) );
          (1, map (fun line -> (padded ~cr max_line line, next)) (valid pc)) ]
    in
    let rec lines n pc acc =
      if n = 0 then return (List.rev acc)
      else
        let* line, pc = step pc in
        lines (n - 1) pc (line :: acc)
    in
    let* big = frequencyl [ (4, false); (1, true) ] in
    let* count = if big then int_range 5000 6000 else int_range 0 40 in
    let* lines = lines count 0x1000 [] in
    let* bad =
      let* cr = crlf in
      frequency
        [ (3, return None);
          (6, map (fun l -> Some (ending cr l)) (oneofl (bad_lines format)));
          (1, map (fun l -> Some (padded ~cr (max_line + 1) l)) (valid 0x2000)) ]
    in
    let* at = int_bound count in
    let* final_newline = bool in
    let lines =
      match bad with
      | None -> lines
      | Some bad ->
          List.filteri (fun i _ -> i < at) lines
          @ (bad :: List.filteri (fun i _ -> i >= at) lines)
    in
    return (String.concat "\n" lines ^ if final_newline then "\n" else ""))

type drained = {
  records : Record.t list;
  error : Adapter.error option;
  stats : Adapter.stats;
}

let collect next_result stats adapter =
  let rec go acc =
    match next_result adapter with
    | Ok (Some record) -> go (record :: acc)
    | Ok None -> (List.rev acc, None)
    | Error error -> (List.rev acc, Some error)
  in
  let records, error = go [] in
  { records; error; stats = stats adapter }

let describe d =
  Printf.sprintf "%d records, %d lines, error %s" (List.length d.records)
    d.stats.Adapter.lines
    (match d.error with Some e -> Adapter.error_to_string e | None -> "none")

let same label a b =
  a = b
  || QCheck.Test.fail_reportf "%s:@ %s@ vs@ %s" label (describe a)
       (describe b)

let scanner_matches_string_lines format =
  let show source =
    let n = String.length source in
    Printf.sprintf "%d bytes: %S%s" n (String.sub source 0 (Int.min n 2000))
      (if n > 2000 then "..." else "")
  in
  QCheck.Test.make ~count:150
    ~name:
      (Printf.sprintf "%s: window scanner = string-per-line parser"
         (Adapter.format_to_string format))
    (QCheck.make ~print:show (scanner_input format))
    (fun source ->
      let file = "diff.trc" in
      let oracle =
        collect String_lines.next_result String_lines.stats
          (String_lines.of_string ~format ~file source)
      in
      let scanned =
        collect Adapter.next_result Adapter.stats
          (Adapter.of_string ~format ~file source)
      in
      let read =
        with_tmp ~suffix:".trc" (fun path ->
            write_bytes path source;
            In_channel.with_open_bin path (fun ic ->
                collect Adapter.next_result Adapter.stats
                  (Adapter.of_channel ~format ~file ic)))
      in
      same "of_string vs the string-per-line parser" oracle scanned
      && same "of_channel vs of_string" scanned read)

(* ------------------------------------------------------------------- *)
(* The trace frontier through the CLI: foreign formats, trace files,
   pipes and shards against the in-memory kernel run, and the
   constant-memory guard on the streamed paths.                         *)

let with_tmp_dir f =
  let dir = Filename.temp_dir "resim_frontier" "" in
  let rec remove path =
    if Sys.is_directory path then begin
      Array.iter
        (fun entry -> remove (Filename.concat path entry))
        (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect ~finally:(fun () -> remove dir) (fun () -> f dir)

let cli = Filename.quote Test_sample.cli
let shell label command = check int label 0 (Sys.command command)

let resim label args = check int label 0 (Test_sample.run_cli args)

(* One counter of a --metrics document. *)
let metrics_counter path name =
  match Json.parse (read_bytes path) with
  | Error message -> Alcotest.failf "%s: invalid JSON (%s)" path message
  | Ok document -> (
      match
        Option.bind
          (Option.bind (Json.member "counters" document) (Json.member name))
          Json.int_value
      with
      | Some value -> value
      | None -> Alcotest.failf "%s: no counter %s" path name)

(* Text profile: a loop whose branch at 0x1004 alternates taken (back to
   0x1000) and not-taken (falling through to 0x1008), so the synthesis
   predictor must mispredict and emit tagged wrong-path blocks. *)
let alternating_text =
  String.concat ""
    (List.init 100 (fun i ->
         "1000 0 1 2 3\n1004 0 2 1 1\n"
         ^ if i mod 2 = 1 then "1008 0 3 2 1\n" else ""))

(* RISC-V profile: a lw / mul / sw / bne loop, taken five times, then
   falling through to a nop. *)
let loop_riscv =
  String.concat ""
    (List.init 6 (fun i ->
         Printf.sprintf
           "1000 0005a503 mem %x\n1004 02c58533\n1008 00a62023 mem %x\n\
            100c fed61ae3\n"
           (32768 + (8 * i))
           (36864 + (8 * i))))
  ^ "1010 00000013\n"

let test_cli_foreign_formats () =
  with_tmp_dir (fun dir ->
      List.iter
        (fun (format, text) ->
          let trace = Filename.concat dir (format ^ ".trc") in
          let metrics = Filename.concat dir (format ^ ".json") in
          write_bytes trace text;
          resim (format ^ ": lint --format exits 0")
            (Printf.sprintf "lint %s --format %s" (Filename.quote trace)
               format);
          resim (format ^ ": simulate --format exits 0")
            (Printf.sprintf "simulate -t %s --format %s --metrics %s"
               (Filename.quote trace) format (Filename.quote metrics));
          check bool (format ^ ": synthesized wrong path reaches the engine")
            true
            (metrics_counter metrics "fetched_wrong_path" > 0))
        [ ("text", alternating_text); ("riscv", loop_riscv) ];
      let bad = Filename.concat dir "bad.trc" in
      write_bytes bad "1000 0 1 2 3\n1004 9 1 2 3\n";
      let code, _, err =
        Test_sample.cli_output
          (Printf.sprintf "simulate -t %s --format text" (Filename.quote bad))
      in
      check int "malformed text exits 1" 1 code;
      check bool "stderr names RSM-A003" true
        (Test_sample.contains err "RSM-A003");
      check bool "stderr names the file and line" true
        (Test_sample.contains err (bad ^ ":2"));
      let code, out, err =
        Test_sample.cli_output "simulate -t /nonexistent/no-such.rtr"
      in
      check int "missing .rtr exits 2" 2 code;
      check bool "missing .rtr prints RSM-T009" true
        (Test_sample.contains (out ^ err) "RSM-T009");
      check bool "missing .rtr raises nothing" false
        (Test_sample.contains (out ^ err) "Fatal error"))

(* The oracle generates the same kernel in memory and reads no file, so
   it shares no decode or stream code with [-t]. *)
let test_cli_trace_files_match_kernel_run () =
  with_tmp_dir (fun dir ->
      let path name = Filename.quote (Filename.concat dir name) in
      let bytes name = read_bytes (Filename.concat dir name) in
      resim "tracegen"
        (Printf.sprintf "tracegen -k gzip -s 4000 -o %s" (path "t.rtr"));
      resim "kernel run"
        (Printf.sprintf "simulate -k gzip -s 4000 --metrics %s"
           (path "k.json"));
      resim "simulate -t"
        (Printf.sprintf "simulate -t %s --metrics %s" (path "t.rtr")
           (path "a.json"));
      check string "-t metrics = the in-memory kernel run" (bytes "k.json")
        (bytes "a.json");
      (* A streamed header (a count the producer did not know): the
         file, the no-op --stream flag and the same bytes through a
         pipe. *)
      shell "tracegen --stream"
        (Printf.sprintf
           "%s tracegen --stream --limit 50000 -k gzip > %s 2> /dev/null" cli
           (path "s.rtr"));
      resim "streamed file"
        (Printf.sprintf "simulate -t %s --metrics %s" (path "s.rtr")
           (path "sa.json"));
      resim "--stream"
        (Printf.sprintf "simulate -t %s --stream --metrics %s" (path "s.rtr")
           (path "sb.json"));
      shell "-t -"
        (Printf.sprintf "%s simulate -t - --metrics %s < %s > /dev/null" cli
           (path "sc.json") (path "s.rtr"));
      check string "--stream = the file" (bytes "sa.json") (bytes "sb.json");
      check string "-t - = the file" (bytes "sa.json") (bytes "sc.json");
      (* Shards lint alone and simulate as the unsharded trace. *)
      let shards = Filename.concat dir "shards" in
      Sys.mkdir shards 0o755;
      resim "tracegen --records-per-shard"
        (Printf.sprintf "tracegen -k gzip -s 4000 --records-per-shard 512 -o %s"
           (Filename.quote (Filename.concat shards "t.rtr")));
      let files = Sys.readdir shards in
      check bool "at least two shards" true (Array.length files >= 2);
      Array.iter
        (fun shard ->
          resim (shard ^ " lints clean")
            (Printf.sprintf "lint %s"
               (Filename.quote (Filename.concat shards shard))))
        files;
      resim "simulate the stem"
        (Printf.sprintf "simulate -t %s --metrics %s"
           (Filename.quote (Filename.concat shards "t"))
           (path "c.json"));
      check string "sharded = unsharded" (bytes "a.json") (bytes "c.json"))

(* The streamed paths hold O(chunk) memory: a run that materialized the
   trace, or a foreign line read whole, would blow through this. *)
let rss_budget_kb = 65_536

(* Peak RSS (VmHWM, kB) of a child polled from /proc until it exits,
   and its exit code; the child is killed and the test fails past
   [seconds]. *)
let watch_peak ~label ~seconds pid =
  let vm_hwm () =
    match
      In_channel.with_open_text (Printf.sprintf "/proc/%d/status" pid)
        In_channel.input_all
    with
    | exception Sys_error _ -> 0
    | status ->
        List.fold_left
          (fun peak line ->
            match String.split_on_char ':' line with
            | [ "VmHWM"; value ] -> (
                match String.split_on_char ' ' (String.trim value) with
                | kb :: _ -> Option.value (int_of_string_opt kb) ~default:peak
                | [] -> peak)
            | _ -> peak)
          0
          (String.split_on_char '\n' status)
  in
  let deadline = Unix.gettimeofday () +. seconds in
  let rec poll peak =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
        if Unix.gettimeofday () > deadline then begin
          Unix.kill pid Sys.sigkill;
          ignore (Unix.waitpid [] pid);
          Alcotest.failf "%s: still running after %.0f s" label seconds
        end;
        let peak = Int.max peak (vm_hwm ()) in
        (* A clean run of the long line lasts tens of milliseconds. *)
        Unix.sleepf 0.002;
        poll peak
    | _, Unix.WEXITED code -> (peak, code)
    | _, (Unix.WSIGNALED signal | Unix.WSTOPPED signal) ->
        Alcotest.failf "%s: stopped by signal %d" label signal
  in
  poll 0

(* Start the CLI with [args], its stdout and stderr into [output]. *)
let spawn_cli args ~output =
  let out =
    Unix.openfile output [ O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ] 0o600
  in
  let null = Unix.openfile "/dev/null" [ O_RDONLY; O_CLOEXEC ] 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close out;
      Unix.close null)
    (fun () ->
      Unix.create_process Test_sample.cli
        (Array.of_list (Test_sample.cli :: args))
        null out out)

let check_peak label peak =
  check bool
    (Printf.sprintf "%s: peak RSS %d kB within %d kB" label peak rss_budget_kb)
    true
    (peak > 0 && peak <= rss_budget_kb)

let test_cli_constant_memory () =
  with_tmp_dir (fun dir ->
      let path name = Filename.concat dir name in
      (* The streamed path peaks near 18 MB on 2M records; holding them
         in memory took about 220 MB. *)
      shell "tracegen 2M records"
        (Printf.sprintf
           "%s tracegen --stream --limit 2000000 -k gzip > %s 2> /dev/null" cli
           (Filename.quote (path "big.rtr")));
      let label = "2M-record simulate -t" in
      let peak, code =
        watch_peak ~label ~seconds:300.
          (spawn_cli
             [ "simulate"; "-t"; path "big.rtr"; "--metrics"; path "p.json" ]
             ~output:(path "p.out"))
      in
      check int (label ^ " exits 0") 0 code;
      check_peak label peak;
      check bool (label ^ " commits more than 1,000,000") true
        (metrics_counter (path "p.json") "committed" > 1_000_000);
      (* One 96 MiB foreign line without a newline, through a FIFO so it
         never reaches the disk: the adapter stops once max_line_bytes
         are buffered. The writer dies of SIGPIPE once the simulator
         stops reading. *)
      let fifo = path "long.trc" in
      Unix.mkfifo fifo 0o600;
      let writer =
        Unix.create_process "/bin/sh"
          [| "/bin/sh";
             "-c";
             "head -c 100663296 /dev/zero | tr '\\000' a > "
             ^ Filename.quote fifo |]
          Unix.stdin Unix.stdout Unix.stderr
      in
      let label = "96 MiB foreign line" in
      let peak, code =
        watch_peak ~label ~seconds:300.
          (spawn_cli
             [ "simulate"; "--format"; "text"; "-t"; fifo ]
             ~output:(path "long.out"))
      in
      (* A writer still blocked in open, waiting for a reader, is let
         through to its SIGPIPE. *)
      (try Unix.close (Unix.openfile fifo [ O_RDONLY; O_NONBLOCK ] 0)
       with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] writer);
      check int (label ^ " exits 1") 1 code;
      check_peak label peak;
      check bool (label ^ " is RSM-A004 at 1:4097") true
        (Test_sample.contains
           (read_bytes (path "long.out"))
           (fifo ^ ":1:4097: [RSM-A004]")))

(* ------------------------------------------------------------------- *)

let suite =
  [ ("frontier:streamed differential",
     [ Alcotest.test_case "pull path matches in-memory on all kernels" `Slow
         test_streamed_matches_in_memory;
       Alcotest.test_case "simulate --stream prints the -t report" `Quick
         test_cli_stream_report_matches_file;
       Alcotest.test_case "sampled and resumed streams match arrays" `Slow
         test_sampled_and_resumed_streams_match_arrays ]);
    ("frontier:chunked cursor",
     [ Alcotest.test_case "agrees with in-memory on every corruption class"
         `Quick test_chunked_agrees_on_every_corruption_class;
       Alcotest.test_case "truncation at chunk boundaries" `Quick
         test_truncation_at_chunk_boundaries;
       Alcotest.test_case "offsets are absolute past refills" `Quick
         test_error_offset_is_past_first_chunk;
       Alcotest.test_case "degraded resync matches in-memory, chunks 1-17"
         `Quick test_chunked_degraded_matches_in_memory ]);
    ("frontier:streamed encoder",
     [ Alcotest.test_case "push/close round-trips with exact count" `Quick
         test_encoder_streamed_roundtrip;
       Alcotest.test_case "missing file is typed RSM-T009" `Quick
         test_read_file_missing_is_typed ]);
    ("frontier:shards",
     [ Alcotest.test_case "round-trip, expansion, per-shard lint" `Quick
         test_shard_roundtrip_and_lint;
       Alcotest.test_case "empty trace yields one empty shard" `Quick
         test_shard_empty_trace ]);
    ("frontier:multicore streams",
     [ Alcotest.test_case "truncated stream is `Truncated with fault" `Quick
         test_multicore_truncated_stream;
       Alcotest.test_case "stream feed matches records feed" `Quick
         test_multicore_stream_feed_matches_records_feed ]);
    ("frontier:adapters",
     [ Alcotest.test_case "tolerant lexing (CRLF, comments, blanks)" `Quick
         test_text_tolerant_lexing;
       Alcotest.test_case "fall-through reclassifies as not-taken" `Quick
         test_text_not_taken_reclassification;
       Alcotest.test_case "RSM-A catalog with file:line:col" `Quick
         test_adapter_rsm_a_catalog;
       Alcotest.test_case "errors are sticky; pull raises typed fault" `Quick
         test_adapter_errors_are_sticky;
       Alcotest.test_case "an out-of-range line limit is rejected" `Quick
         test_adapter_rejects_bad_line_limit;
       Alcotest.test_case "riscv decode classes" `Quick
         test_riscv_decode_classes;
       Alcotest.test_case "adapted streams lint clean" `Quick
         test_adapted_streams_lint_clean;
       Alcotest.test_case "synthesized wrong path reaches the engine" `Quick
         test_adapter_wrong_path_reaches_engine;
       QCheck_alcotest.to_alcotest adapter_roundtrip;
       QCheck_alcotest.to_alcotest (scanner_matches_string_lines Adapter.Text);
       QCheck_alcotest.to_alcotest
         (scanner_matches_string_lines Adapter.Riscv) ]);
    ("frontier:cli",
     [ Alcotest.test_case "foreign formats lint and simulate" `Quick
         test_cli_foreign_formats;
       Alcotest.test_case "-t files, pipes and shards match -k" `Quick
         test_cli_trace_files_match_kernel_run;
       Alcotest.test_case "streamed runs within the peak-RSS budget" `Quick
         test_cli_constant_memory ]) ]
