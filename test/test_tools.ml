(* Tests for the tooling layer: the VHDL generator and the pipeline
   tracer (the Obs pipetrace and waterfall sinks). *)

module Record = Resim_trace.Record
module Json = Resim_core.Json
module Obs = Resim_obs.Obs

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let char = Alcotest.char

let contains haystack needle =
  let h = String.length haystack and n = String.length needle in
  let rec scan i = i + n <= h && (String.sub haystack i n = needle || scan (i + 1)) in
  n = 0 || scan 0

let count_occurrences haystack needle =
  let n = String.length needle in
  let rec loop from acc =
    if from + n > String.length haystack then acc
    else if String.sub haystack from n = needle then loop (from + n) (acc + 1)
    else loop (from + 1) acc
  in
  if n = 0 then 0 else loop 0 0

(* --- VHDL generator ---------------------------------------------------- *)

let balanced_vhdl text =
  (* Every process / entity / architecture must be closed. *)
  count_occurrences text "process (" = count_occurrences text "end process"
  && count_occurrences text "entity " >= 2 (* decl + end *)
  && count_occurrences text "architecture " = 2

let test_vhdl_two_level () =
  let text =
    Resim_vhdlgen.Predictor_gen.direction_predictor
      Resim_bpred.Direction.two_level_default
  in
  check bool "mentions the table sizes" true
    (contains text "array (0 to 3) of unsigned(7 downto 0)"
    && contains text "array (0 to 4095) of unsigned(1 downto 0)");
  check bool "has a training process" true (contains text "process (clk)");
  check bool "balanced" true (balanced_vhdl text)

let test_vhdl_all_direction_configs () =
  List.iter
    (fun config ->
      let text = Resim_vhdlgen.Predictor_gen.direction_predictor config in
      check bool "entity present" true
        (contains text "entity direction_predictor is");
      check bool "architecture closed" true
        (contains text "end architecture rtl;"))
    [ Resim_bpred.Direction.Perfect;
      Resim_bpred.Direction.Static_taken;
      Resim_bpred.Direction.Static_not_taken;
      Resim_bpred.Direction.Bimodal { table_entries = 256 };
      Resim_bpred.Direction.two_level_default;
      Resim_bpred.Direction.Gshare { history_bits = 10; pht_entries = 1024 }
    ]

let test_vhdl_btb_ways () =
  let direct =
    Resim_vhdlgen.Predictor_gen.btb { Resim_bpred.Btb.entries = 512;
                                      associativity = 1 }
  in
  check bool "direct-mapped has one way" true
    (contains direct "tags_0" && not (contains direct "tags_1"));
  let assoc =
    Resim_vhdlgen.Predictor_gen.btb { Resim_bpred.Btb.entries = 512;
                                      associativity = 4 }
  in
  check bool "4-way has four ways" true
    (contains assoc "tags_3" && not (contains assoc "tags_4"));
  check bool "balanced" true (balanced_vhdl assoc)

let test_vhdl_ras_depth () =
  let text = Resim_vhdlgen.Predictor_gen.ras ~depth:16 in
  check bool "depth in array bound" true (contains text "array (0 to 15)");
  check bool "circular arithmetic" true (contains text "mod 16")

let test_vhdl_params_package () =
  let text =
    Resim_vhdlgen.Core_gen.params_package Resim_core.Config.reference
  in
  List.iter
    (fun fragment ->
      check bool fragment true (contains text fragment))
    [ ": integer := 4;"; "ROB_ENTRIES"; "MINOR_CYCLES";
      ": integer := 7;"; "\"optimized\"" ]

let test_vhdl_bundle_files () =
  let dir = Filename.temp_file "resim_vhdl" "" in
  Sys.remove dir;
  let paths =
    Resim_vhdlgen.Core_gen.write_all ~dir Resim_core.Config.reference
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter Sys.remove paths;
      Sys.rmdir dir)
    (fun () ->
      check int "seven files" 7 (List.length paths);
      List.iter
        (fun path ->
          check bool (path ^ " non-empty") true
            ((Unix.stat path).Unix.st_size > 200))
        paths)

let test_vhdl_deterministic () =
  let once () =
    Resim_vhdlgen.Core_gen.generate_all Resim_core.Config.fast_comparable
  in
  check bool "generation is deterministic" true (once () = once ())

let test_vhdl_queue () =
  let text =
    Resim_vhdlgen.Structures_gen.circular_queue ~name:"ifq" ~depth:4
      ~payload_bits:48
  in
  check bool "array bound" true (contains text "array (0 to 3)");
  check bool "payload width" true (contains text "(47 downto 0)");
  check bool "flush port" true (contains text "flush");
  check bool "wraparound" true (contains text "mod 4");
  check bool "balanced" true (balanced_vhdl text)

let test_vhdl_rename_table () =
  let text =
    Resim_vhdlgen.Structures_gen.rename_table ~registers:32 ~rob_entries:16
  in
  check bool "register array" true (contains text "array (0 to 31)");
  check bool "rob tag width" true (contains text "(3 downto 0)");
  check bool "two read ports" true
    (contains text "src1_tag" && contains text "src2_tag");
  check bool "squash flush" true (contains text "valid <= (others => '0');");
  check bool "balanced" true (balanced_vhdl text)

(* --- repo hygiene -------------------------------------------------------- *)

let test_gitignore_excludes_build_artifacts () =
  (* The workspace .gitignore is declared as a test dependency (see
     test/dune), so it is present next to the build tree; keeping
     [_build/] ignored is what stops compiled artifacts from ever being
     committed again. *)
  let path = "../.gitignore" in
  check bool ".gitignore exists" true (Sys.file_exists path);
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  check bool "_build/ is ignored" true (List.mem "_build/" !lines);
  check bool "install files are ignored" true (List.mem "*.install" !lines)

(* --- pipeline tracer ----------------------------------------------------- *)

let alu ?(wrong = false) ~pc ~dest ~src1 () =
  { Record.pc; wrong_path = wrong; dest; src1; src2 = 0;
    payload = Record.Other { op_class = Record.Alu } }

let chain n =
  Array.init n (fun i ->
      alu ~pc:i ~dest:(1 + (i mod 2)) ~src1:(1 + ((i + 1) mod 2)) ())

(* One run with the JSONL pipetrace and the waterfall both attached:
   the event stream, the rendered waterfall and the final statistics.
   The waterfall overwrites marks that fall in one cycle, so stage
   order comes from the stream; fetch-first, the rendering and the
   window come from the waterfall's rows. *)
let traced ~window records =
  let path = Filename.temp_file "resim_waterfall" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let buffer = Buffer.create 4096 in
      let channel = open_out path in
      let sinks =
        [ Obs.make_sink (Obs.add_jsonl_event buffer);
          Obs.waterfall ~window channel ]
      in
      let engine = Resim_core.Engine.create records in
      Obs.attach engine sinks;
      let stats = Resim_core.Engine.run engine in
      Obs.close sinks;
      close_out channel;
      ( Buffer.contents buffer,
        In_channel.with_open_text path In_channel.input_all,
        stats ))

(* The stream's per-instruction events as (kind, id, cycle, wrong
   path); fetches, flushes and stalls carry no id and are dropped. *)
let instruction_events jsonl =
  List.filter_map
    (fun line ->
      if line = "" then None
      else
        match Json.parse line with
        | Error message -> Alcotest.failf "pipetrace line %S: %s" line message
        | Ok event -> (
            let int key = Option.bind (Json.member key event) Json.int_value in
            match
              (Option.bind (Json.member "e" event) Json.string_value,
               int "id", int "c")
            with
            | Some kind, Some id, Some cycle ->
                Some (kind, id, cycle, Json.member "wp" event <> None)
            | _ -> None))
    (String.split_on_char '\n' jsonl)

let ids_with kind events =
  List.sort_uniq compare
    (List.filter_map
       (fun (k, id, _, _) -> if k = kind then Some id else None)
       events)

let cycle_of kind id events =
  List.find_map
    (fun (k, i, cycle, _) -> if k = kind && i = id then Some cycle else None)
    events

(* The waterfall's instruction rows, each cut after its [|]. *)
let waterfall_rows text =
  List.filter_map
    (fun line ->
      if String.length line > 0 && line.[0] = '#' then
        let bar = String.index line '|' in
        Some (String.sub line (bar + 1) (String.length line - bar - 1))
      else None)
    (String.split_on_char '\n' text)

let test_ptrace_stage_order () =
  let jsonl, waterfall, _ = traced (chain 8) ~window:8 in
  let events = instruction_events jsonl in
  let dispatched = ids_with "D" events in
  check int "eight instructions dispatched" 8 (List.length dispatched);
  List.iter
    (fun id ->
      let cycle kind =
        match cycle_of kind id events with
        | Some cycle -> cycle
        | None -> Alcotest.failf "missing %s for #%d" kind id
      in
      let dispatched = cycle "D" and issued = cycle "I"
      and completed = cycle "W" and committed = cycle "C" in
      check bool "D <= I" true (dispatched <= issued);
      check bool "I < W" true (issued < completed);
      check bool "W < C" true (completed < committed))
    dispatched;
  let rows = waterfall_rows waterfall in
  check int "eight rows" 8 (List.length rows);
  List.iter
    (fun row ->
      check char "fetch is each row's first mark, before dispatch" 'F'
        (String.trim row).[0])
    rows

let test_ptrace_serial_chain_issues_in_order () =
  let jsonl, _, _ = traced (chain 6) ~window:6 in
  let events = instruction_events jsonl in
  let issue_cycles =
    List.filter_map (fun id -> cycle_of "I" id events) (ids_with "I" events)
  in
  check int "every instruction issued" 6 (List.length issue_cycles);
  let rec strictly_increasing = function
    | a :: (b :: _ as rest) -> a < b && strictly_increasing rest
    | [ _ ] | [] -> true
  in
  check bool "dependent chain issues one per cycle" true
    (strictly_increasing issue_cycles)

let test_ptrace_squash_recorded () =
  let records =
    Array.concat
      [ [| alu ~pc:0 ~dest:1 ~src1:29 ();
           { Record.pc = 1; wrong_path = false; dest = 0; src1 = 1; src2 = 2;
             payload =
               Record.Branch
                 { kind = Resim_isa.Opcode.Cond; taken = true; target = 50 }
           } |];
        Array.init 3 (fun i -> alu ~wrong:true ~pc:(2 + i) ~dest:(3 + i) ~src1:29 ());
        [| alu ~pc:50 ~dest:9 ~src1:29 () |] ]
  in
  let jsonl, _, _ = traced records ~window:16 in
  let events = instruction_events jsonl in
  let wrong_path =
    List.filter_map
      (fun (kind, id, _, wrong) ->
        if kind = "D" && wrong then Some id else None)
      events
  in
  let squashed = ids_with "X" events in
  check bool "wrong-path instructions squashed" true (squashed <> []);
  List.iter
    (fun id ->
      check bool "only wrong-path squashes" true (List.mem id wrong_path))
    squashed;
  check bool "no wrong-path commit in the trace" false
    (List.exists (fun id -> List.mem id wrong_path) (ids_with "C" events))

let test_ptrace_render () =
  let _, waterfall, _ = traced (chain 4) ~window:4 in
  check bool "has legend" true (contains waterfall "F fetch");
  check bool "has rows" true (contains waterfall "#0")

let test_ptrace_window_limits () =
  let _, waterfall, _ = traced (chain 50) ~window:5 in
  check int "window respected" 5 (List.length (waterfall_rows waterfall))

let test_ptrace_does_not_change_timing () =
  let records = chain 64 in
  let plain = Resim_core.Engine.simulate records in
  let _, _, traced_stats = traced records ~window:16 in
  check bool "identical timing with tracer attached" true
    (Int64.equal
       (Resim_core.Stats.get Resim_core.Stats.major_cycles plain)
       (Resim_core.Stats.get Resim_core.Stats.major_cycles traced_stats))

let suite =
  [ ("tools:vhdl",
     [ Alcotest.test_case "two-level tables" `Quick test_vhdl_two_level;
       Alcotest.test_case "all direction configs" `Quick
         test_vhdl_all_direction_configs;
       Alcotest.test_case "btb ways" `Quick test_vhdl_btb_ways;
       Alcotest.test_case "ras depth" `Quick test_vhdl_ras_depth;
       Alcotest.test_case "params package" `Quick test_vhdl_params_package;
       Alcotest.test_case "bundle files" `Quick test_vhdl_bundle_files;
       Alcotest.test_case "deterministic" `Quick test_vhdl_deterministic;
       Alcotest.test_case "circular queue" `Quick test_vhdl_queue;
       Alcotest.test_case "rename table" `Quick test_vhdl_rename_table ]);
    ("tools:hygiene",
     [ Alcotest.test_case "gitignore excludes artifacts" `Quick
         test_gitignore_excludes_build_artifacts ]);
    ("tools:ptrace",
     [ Alcotest.test_case "stage order" `Quick test_ptrace_stage_order;
       Alcotest.test_case "serial chain" `Quick
         test_ptrace_serial_chain_issues_in_order;
       Alcotest.test_case "squash events" `Quick test_ptrace_squash_recorded;
       Alcotest.test_case "render" `Quick test_ptrace_render;
       Alcotest.test_case "window" `Quick test_ptrace_window_limits;
       Alcotest.test_case "timing unchanged" `Quick
         test_ptrace_does_not_change_timing ]) ]
