(* Tests for resim-check: the configuration validator (RSM-C001…C021)
   and the streaming trace linter (RSM-T001…T008). The third layer —
   the hot-path source lint — runs as `dune build @lint`, not here. *)

module Check = Resim_check.Check
module Diagnostic = Resim_check.Check.Diagnostic
module Config = Resim_core.Config
module Cache = Resim_cache.Cache
module Codec = Resim_trace.Codec
module Record = Resim_trace.Record
module Synthetic = Resim_tracegen.Synthetic

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

(* Distinct diagnostic codes, in first-appearance order. *)
let codes diagnostics =
  List.fold_left
    (fun acc (d : Diagnostic.t) ->
      if List.mem d.code acc then acc else acc @ [ d.code ])
    [] diagnostics

let error_codes diagnostics = codes (Diagnostic.errors diagnostics)
let warning_codes diagnostics = codes (Diagnostic.warnings diagnostics)

let string_list = Alcotest.(list string)

(* --- Config validator: the blessed configurations are clean ---------- *)

let test_reference_clean () =
  check string_list "reference has no findings" []
    (codes (Check.Config.validate Config.reference));
  check string_list "fast_comparable has no findings" []
    (codes (Check.Config.validate Config.fast_comparable));
  check bool "reference error summary empty" true
    (Check.Config.error_summary Config.reference = None)

let test_ablation_grid_clean () =
  (* Every configuration the sweep/report runners will ever launch must
     pass the validator — otherwise `resim sweep` would refuse its own
     grid. *)
  List.iter
    (fun (request : Resim_reports.Runner.request) ->
      check string_list
        (Printf.sprintf "grid config %s is clean" request.key)
        []
        (codes (Check.Config.validate request.config)))
    (Resim_reports.Ablations.requests ())

(* --- Config validator: directed violations --------------------------- *)

let test_optimized_port_budget () =
  (* §IV.B: the optimized organization multiplexes at most N-1 memory
     ports into the minor-cycle schedule. *)
  let too_many = { Config.reference with mem_read_ports = 4 } in
  check bool "C013 fires" true
    (List.mem "RSM-C013" (error_codes (Check.Config.validate too_many)));
  (* The same port count is legal under the improved organization. *)
  let improved = { too_many with organization = Config.Improved } in
  check string_list "improved organization accepts the ports" []
    (error_codes (Check.Config.validate improved));
  (* Exactly N-1 ports is the boundary and is accepted. *)
  let at_limit =
    { Config.reference with mem_read_ports = 2; mem_write_ports = 1 }
  in
  check string_list "N-1 ports accepted" []
    (error_codes (Check.Config.validate at_limit))

let test_zero_latency_fu () =
  let zero_div = { Config.reference with div_latency = 0 } in
  check bool "C010 fires on zero divide latency" true
    (List.mem "RSM-C010" (error_codes (Check.Config.validate zero_div)));
  let no_alus = { Config.reference with alu_count = 0 } in
  check bool "C009 fires on zero ALUs" true
    (List.mem "RSM-C009" (error_codes (Check.Config.validate no_alus)))

let test_non_power_of_two_cache () =
  let lopsided =
    { Config.reference with
      icache =
        Cache.Set_associative
          { size_bytes = 3000; associativity = 2; block_bytes = 64 } }
  in
  check bool "C017 fires on non-tiling capacity" true
    (List.mem "RSM-C017" (error_codes (Check.Config.validate lopsided)));
  let odd_block =
    { Config.reference with
      dcache =
        Cache.Set_associative
          { size_bytes = 32768; associativity = 8; block_bytes = 48 } }
  in
  check bool "C017 fires on non-power-of-two block" true
    (List.mem "RSM-C017" (error_codes (Check.Config.validate odd_block)));
  let fine =
    { Config.reference with icache = Cache.l1_32k_8way_64b }
  in
  check string_list "a real L1 geometry is clean" []
    (error_codes (Check.Config.validate fine))

let test_lsq_exceeds_rob () =
  let oversized = { Config.reference with lsq_entries = 32 } in
  check bool "C007 fires" true
    (List.mem "RSM-C007" (error_codes (Check.Config.validate oversized)));
  (* The engine's own permissive validate still accepts it — the strict
     rule lives only in resim-check (qcheck configs in test_core rely
     on that). *)
  check bool "engine validate remains permissive" true
    (match Config.validate oversized with Ok _ -> true | Error _ -> false)

let test_warnings_are_not_errors () =
  let free_misses = { Config.reference with misspeculation_penalty = 0 } in
  let diagnostics = Check.Config.validate free_misses in
  check bool "C016 warns on free mispredictions" true
    (List.mem "RSM-C016" (warning_codes diagnostics));
  check string_list "but nothing errors" [] (error_codes diagnostics);
  let fast_divider = { Config.reference with div_latency = 3 } in
  let diagnostics = Check.Config.validate fast_divider in
  check bool "C011 warns on pipelined-looking divider" true
    (List.mem "RSM-C011" (warning_codes diagnostics));
  check string_list "still no errors" [] (error_codes diagnostics)

(* --- Config validator: property over generated clean configs --------- *)

(* Structurally sound configurations: width 1-8 with the queues, ROB
   and LSQ sized around it, functional-unit counts and latencies, memory
   ports within the organization's budget, penalties, and perfect or
   set-associative L1 caches of power-of-two geometry.
   Every draw passes resim-check with no diagnostic at all. Shared with
   the engine differential in test_spec.ml. *)
let sound_config : Config.t QCheck.Gen.t =
 fun rand ->
  let int lo hi = QCheck.Gen.int_range lo hi rand in
  let pick values = List.nth values (int 0 (List.length values - 1)) in
  let width = int 1 8 in
  let rob = width * (1 + int 0 3) in
  let organization =
    (* Optimized needs the §IV.B port budget: 2 ports fit only when
       width >= 3. *)
    match pick [ Config.Simple; Config.Improved; Config.Optimized ] with
    | Config.Optimized when width < 3 -> Config.Improved
    | organization -> organization
  in
  let read_ports, write_ports =
    if Config.is_optimized organization then
      let read_ports = int 1 (width - 2) in
      (read_ports, int 1 (width - 1 - read_ports))
    else (int 1 4, int 1 2)
  in
  let mult_latency = int 1 4 in
  let misfetch = int 0 4 in
  let cache () =
    if int 0 1 = 0 then Cache.Perfect
    else
      Cache.Set_associative
        { size_bytes = pick [ 1024; 4096; 32768 ];
          associativity = pick [ 1; 2; 4; 8 ];
          block_bytes = pick [ 16; 32; 64 ] }
  in
  { Config.reference with
    width;
    ifq_entries = width + int 0 2;
    decouple_entries = width + int 0 2;
    rob_entries = rob;
    lsq_entries = min rob (width + int 0 4);
    alu_count = int 1 8;
    alu_latency = int 1 2;
    mult_count = int 1 2;
    mult_latency;
    div_count = int 1 2;
    div_latency = mult_latency + int 1 10;
    mem_read_ports = read_ports;
    mem_write_ports = write_ports;
    misfetch_penalty = misfetch;
    misspeculation_penalty = misfetch + int 1 3;
    organization;
    icache = cache ();
    dcache = cache () }

let arbitrary_sound_config =
  QCheck.make ~print:(Format.asprintf "%a" Config.pp) sound_config

let generated_clean_configs_validate =
  QCheck.Test.make
    ~name:"structurally sound generated configs validate clean" ~count:60
    arbitrary_sound_config
    (fun config -> Check.Config.validate config = [])

(* --- Trace linter: clean traces -------------------------------------- *)

let base_records =
  lazy (Synthetic.generate ~seed:11 (Synthetic.balanced ~name:"lint" ~instructions:2500))

let copy_records records = Array.map (fun r -> r) records

let assert_clean name report =
  check bool (name ^ " lints clean") true (Check.Trace.clean report);
  check string_list (name ^ " has no codes") []
    (codes report.Check.Trace.diagnostics)

let test_clean_kernels () =
  (* Every built-in kernel, unmodified, at its default scale — plus the
     synthetic eighth — produces a trace the linter fully accepts. *)
  let kernels =
    Resim_workloads.Workload.all @ Resim_workloads.Workload.extended
  in
  List.iter
    (fun kernel ->
      let name = Resim_workloads.Workload.name_of kernel in
      let program = Resim_workloads.Workload.program_of kernel () in
      let records = Resim_tracegen.Generator.records program in
      let encoded = Codec.encode ~format:Codec.Fixed records in
      let report = Check.Trace.lint_string encoded in
      assert_clean name report;
      check int (name ^ " checked every record") (Array.length records)
        report.Check.Trace.records_checked)
    kernels;
  let records = Lazy.force base_records in
  List.iter
    (fun format ->
      let report = Check.Trace.lint_string (Codec.encode ~format records) in
      assert_clean "synthetic eighth" report;
      check bool "format detected" true
        (report.Check.Trace.format = Some format))
    [ Codec.Fixed; Codec.Compact ]

let test_report_counts () =
  let records = Lazy.force base_records in
  let report = Check.Trace.lint_records records in
  let wrong =
    Array.fold_left
      (fun acc (r : Record.t) -> if r.wrong_path then acc + 1 else acc)
      0 records
  in
  let blocks = ref 0 in
  Array.iteri
    (fun i (r : Record.t) ->
      if
        r.wrong_path
        && (i = 0 || not records.(i - 1).Record.wrong_path)
      then incr blocks)
    records;
  check int "wrong-path records counted" wrong
    report.Check.Trace.wrong_path_records;
  check int "wrong-path blocks counted" !blocks
    report.Check.Trace.wrong_path_blocks

(* --- Trace linter: one corruption class per test --------------------- *)

let test_flipped_tag_bit () =
  let records = copy_records (Lazy.force base_records) in
  (* Tag a correct-path record whose predecessor is a correct-path
     non-branch: the forged block cannot be following any mispredicted
     branch. *)
  let victim = ref (-1) in
  Array.iteri
    (fun i (r : Record.t) ->
      if !victim < 0 && i > 0 && not r.wrong_path then begin
        let prev = records.(i - 1) in
        if (not prev.Record.wrong_path) && not (Record.is_branch prev) then
          victim := i
      end)
    records;
  check bool "found a victim record" true (!victim >= 0);
  records.(!victim) <- { (records.(!victim)) with Record.wrong_path = true };
  let report = Check.Trace.lint_records records in
  check string_list "exactly RSM-T005 flagged" [ "RSM-T005" ]
    (error_codes report.Check.Trace.diagnostics)

let test_orphan_block_at_start () =
  let records = copy_records (Lazy.force base_records) in
  check bool "trace starts on the correct path" true
    (not records.(0).Record.wrong_path);
  records.(0) <- { (records.(0)) with Record.wrong_path = true };
  let report = Check.Trace.lint_records records in
  check string_list "exactly RSM-T005 flagged" [ "RSM-T005" ]
    (error_codes report.Check.Trace.diagnostics)

let test_truncated_payload () =
  let encoded = Codec.encode ~format:Codec.Fixed (Lazy.force base_records) in
  let truncated = String.sub encoded 0 (String.length encoded - 4) in
  let report = Check.Trace.lint_string truncated in
  check string_list "exactly RSM-T002 flagged" [ "RSM-T002" ]
    (error_codes report.Check.Trace.diagnostics);
  check bool "stopped before the declared count" true
    (report.Check.Trace.records_checked
    < Array.length (Lazy.force base_records))

let test_malformed_header () =
  let encoded = Codec.encode ~format:Codec.Fixed (Lazy.force base_records) in
  let bad_magic =
    "X" ^ String.sub encoded 1 (String.length encoded - 1)
  in
  let report = Check.Trace.lint_string bad_magic in
  check string_list "exactly RSM-T001 flagged" [ "RSM-T001" ]
    (error_codes report.Check.Trace.diagnostics);
  check bool "format unknown" true (report.Check.Trace.format = None);
  check int "nothing decoded" 0 report.Check.Trace.records_checked

let test_undecodable_record () =
  (* Keep the 14-byte header (which declares thousands of records) but
     replace the payload with all-ones: the first record's 2-bit type
     code reads 3, which no format defines. *)
  let encoded = Codec.encode ~format:Codec.Fixed (Lazy.force base_records) in
  let forged = String.sub encoded 0 14 ^ String.make 64 '\xff' in
  let report = Check.Trace.lint_string forged in
  check string_list "exactly RSM-T003 flagged" [ "RSM-T003" ]
    (error_codes report.Check.Trace.diagnostics)

let test_wrong_path_run_bound () =
  let records = Lazy.force base_records in
  (* The generator's blocks run up to ROB + IFQ records, far above 4. *)
  let strict = Check.Trace.lint_records ~max_wrong_path_run:4 records in
  check bool "RSM-T007 fires under a tiny bound" true
    (List.mem "RSM-T007" (error_codes strict.Check.Trace.diagnostics));
  assert_clean "default bound" (Check.Trace.lint_records records)

let other_record ~pc =
  { Record.pc;
    wrong_path = false;
    dest = 0;
    src1 = 0;
    src2 = 0;
    payload = Record.Other { op_class = Record.Alu } }

let test_payload_consistency () =
  let untaken_jump =
    { (other_record ~pc:1) with
      Record.payload =
        Record.Branch
          { kind = Resim_isa.Opcode.Jump; taken = false; target = 2 } }
  in
  let report =
    Check.Trace.lint_records [| other_record ~pc:0; untaken_jump |]
  in
  check string_list "untaken unconditional is RSM-T008" [ "RSM-T008" ]
    (error_codes report.Check.Trace.diagnostics);
  let wild_register = { (other_record ~pc:0) with Record.dest = 40 } in
  let report = Check.Trace.lint_records [| wild_register |] in
  check string_list "out-of-range register is RSM-T008" [ "RSM-T008" ]
    (error_codes report.Check.Trace.diagnostics)

let test_block_after_unconditional_warns () =
  let jump =
    { (other_record ~pc:0) with
      Record.payload =
        Record.Branch
          { kind = Resim_isa.Opcode.Jump; taken = true; target = 5 } }
  in
  let tagged = { (other_record ~pc:5) with Record.wrong_path = true } in
  let report = Check.Trace.lint_records [| jump; tagged |] in
  check string_list "RSM-T006 warns" [ "RSM-T006" ]
    (warning_codes report.Check.Trace.diagnostics);
  check string_list "no errors" []
    (error_codes report.Check.Trace.diagnostics)

let test_trailing_bytes_warn () =
  let encoded = Codec.encode ~format:Codec.Fixed (Lazy.force base_records) in
  let padded = encoded ^ String.make 3 '\x00' in
  let report = Check.Trace.lint_string padded in
  check string_list "RSM-T004 warns" [ "RSM-T004" ]
    (warning_codes report.Check.Trace.diagnostics);
  check string_list "no errors" []
    (error_codes report.Check.Trace.diagnostics);
  check bool "not clean" false (Check.Trace.clean report)

(* --- Diagnostics ------------------------------------------------------ *)

let contains ~needle haystack =
  let n = String.length haystack and m = String.length needle in
  let rec scan i =
    i + m <= n && (String.sub haystack i m = needle || scan (i + 1))
  in
  scan 0

let test_diagnostic_rendering () =
  let diagnostic =
    Diagnostic.error ~code:"RSM-C013" ~subject:"mem_read_ports"
      ~hint:"reduce the ports" "too many ports"
  in
  let rendered = Format.asprintf "%a" Diagnostic.pp_list [ diagnostic ] in
  List.iter
    (fun fragment ->
      check bool (Printf.sprintf "rendering contains %S" fragment) true
        (contains ~needle:fragment rendered))
    [ "RSM-C013"; "mem_read_ports"; "too many ports"; "reduce the ports" ]

let suite =
  [ ( "check:config",
      [ Alcotest.test_case "blessed configs are clean" `Quick
          test_reference_clean;
        Alcotest.test_case "ablation grid is clean" `Quick
          test_ablation_grid_clean;
        Alcotest.test_case "optimized port budget (C013)" `Quick
          test_optimized_port_budget;
        Alcotest.test_case "degenerate functional units (C009/C010)"
          `Quick test_zero_latency_fu;
        Alcotest.test_case "cache geometry (C017)" `Quick
          test_non_power_of_two_cache;
        Alcotest.test_case "LSQ exceeding ROB (C007)" `Quick
          test_lsq_exceeds_rob;
        Alcotest.test_case "warnings never block" `Quick
          test_warnings_are_not_errors;
        QCheck_alcotest.to_alcotest generated_clean_configs_validate ] );
    ( "check:trace",
      [ Alcotest.test_case "clean kernels lint clean" `Slow
          test_clean_kernels;
        Alcotest.test_case "report statistics" `Quick test_report_counts;
        Alcotest.test_case "flipped tag bit (T005)" `Quick
          test_flipped_tag_bit;
        Alcotest.test_case "orphan block at start (T005)" `Quick
          test_orphan_block_at_start;
        Alcotest.test_case "truncated payload (T002)" `Quick
          test_truncated_payload;
        Alcotest.test_case "malformed header (T001)" `Quick
          test_malformed_header;
        Alcotest.test_case "undecodable record (T003)" `Quick
          test_undecodable_record;
        Alcotest.test_case "wrong-path run bound (T007)" `Quick
          test_wrong_path_run_bound;
        Alcotest.test_case "payload consistency (T008)" `Quick
          test_payload_consistency;
        Alcotest.test_case "block after unconditional (T006)" `Quick
          test_block_after_unconditional_warns;
        Alcotest.test_case "trailing bytes (T004)" `Quick
          test_trailing_bytes_warn;
        Alcotest.test_case "diagnostic rendering" `Quick
          test_diagnostic_rendering ] ) ]
