(* Golden digests: the committed table [golden_digests.txt] pins the
   full [Stats.to_json] document of every valid kernel x organization x
   width point, plus the observer event-stream signature of a subset,
   as produced by the engine that generated it. Both the default engine
   and the reference phases ([Engine.use_reference]) must reproduce
   every line, so the timing oracle is history, not a sibling copy of
   the engine living in the same tree.

   The table was generated while the engine still had two host
   schedulers (a per-cycle scan and the event-driven one) and holds a
   [-scan-] and an [-event-] row per point; they were bit-identical,
   so each point's one digest is checked against both rows.

   The table changes only with a deliberate timing change; regenerate
   it with [RESIM_GOLDEN_WRITE=$PWD/test/golden_digests.txt dune exec
   ./test/test_main.exe]. *)

open Resim_core
module Synthetic = Resim_tracegen.Synthetic
module Workload = Resim_workloads.Workload

(* Every observer event folded into a compact string: equality of
   signatures is equality of the whole pipetrace, order included. *)
let attach_signature engine buffer =
  Engine.set_observer engine (fun event ->
      Buffer.add_string buffer
        (match event with
        | Engine.Ev_fetch _ -> "F"
        | Engine.Ev_dispatch e -> Printf.sprintf "D%d" e.Entry.id
        | Engine.Ev_issue e -> Printf.sprintf "I%d" e.Entry.id
        | Engine.Ev_complete e -> Printf.sprintf "C%d" e.Entry.id
        | Engine.Ev_commit e -> Printf.sprintf "R%d" e.Entry.id
        | Engine.Ev_squash e -> Printf.sprintf "Q%d" e.Entry.id
        | Engine.Ev_flush_frontend -> "X"
        | Engine.Ev_stall reason -> "s" ^ Engine.stall_reason_name reason);
      Buffer.add_char buffer ';')

(* The seven built-in kernels at their default scale, plus a synthetic
   eighth with a denser dependency and misprediction mix. *)
let kernels =
  lazy
    (List.map
       (fun kernel ->
         let program = Workload.program_of kernel () in
         (Workload.name_of kernel, Resim_tracegen.Generator.records program))
       (Workload.all @ Workload.extended)
    @ [ ( "synthetic",
          Synthetic.generate ~seed:11
            { (Synthetic.balanced ~name:"golden" ~instructions:4000) with
              Synthetic.dependency_density = 0.5;
              mispredict_rate = 0.08 } ) ])

(* The reference machine at widths 2/4/8, memory ports and ALUs scaled
   with the width, across the three organizations. Points
   [Config.validate] refuses (Optimized at width 2) are skipped. *)
let points =
  List.concat_map
    (fun (width, read_ports, write_ports) ->
      List.filter_map
        (fun organization ->
          let config =
            { Config.reference with
              Config.width;
              ifq_entries = width;
              decouple_entries = width;
              alu_count = width;
              mem_read_ports = read_ports;
              mem_write_ports = write_ports;
              organization }
          in
          match Config.validate config with
          | Ok config -> Some (Config.organization_name organization, width, config)
          | Error _ -> None)
        [ Config.Simple; Config.Improved; Config.Optimized ])
    [ (2, 1, 1); (4, 2, 1); (8, 4, 2) ]

(* The event-stream subset: the reference organization at width 4. *)
let traced organization width =
  String.equal organization "optimized" && width = 4

(* One line per digest, [stats|events KERNEL POINT DIGEST], with
   [prepare] applied to every engine before it runs; each point's lines
   appear under its [-scan-] and its [-event-] name. *)
let table ~prepare =
  List.concat_map
    (fun (kernel, records) ->
      List.concat_map
        (fun (organization, width, config) ->
          let engine = Engine.create ~config records in
          let buffer = Buffer.create 65536 in
          let traced = traced organization width in
          if traced then attach_signature engine buffer;
          prepare engine;
          let stats = Engine.run engine in
          let digests =
            ("stats", Hash.string (Stats.to_json stats))
            ::
            (if traced then [ ("events", Hash.string (Buffer.contents buffer)) ]
             else [])
          in
          List.concat_map
            (fun scheduler ->
              List.map
                (fun (kind, digest) ->
                  Printf.sprintf "%s %s %s-%s-w%d %s" kind kernel organization
                    scheduler width digest)
                digests)
            [ "scan"; "event" ])
        points)
    (Lazy.force kernels)

let write path =
  let oc = open_out path in
  List.iter (fun line -> output_string oc (line ^ "\n")) (table ~prepare:ignore);
  close_out oc

let committed =
  lazy
    (In_channel.with_open_text "golden_digests.txt" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun line -> line <> ""))

let check_against_table ~prepare () =
  let expected = Lazy.force committed in
  let actual = table ~prepare in
  Alcotest.(check int) "digest count" (List.length expected)
    (List.length actual);
  List.iter2 (Alcotest.(check string) "digest") expected actual

(* Golden traces: the committed table [golden_traces.txt] pins the
   generator itself, not only the stats it leads to. One line per
   built-in kernel at its default scale and generator configuration:
   the default one, and the one a non-reference engine configuration
   derives (perfect predictor and ROB 32: the predictor's oracle path,
   and no wrong-path blocks). The digest covers the whole Fixed
   encoding, so every record field and the record count are pinned.
   Regenerate only for a deliberate change to the trace the generator
   produces, with [RESIM_GOLDEN_TRACES_WRITE=$PWD/test/golden_traces.txt
   dune exec ./test/test_main.exe]. *)
let generator_configs =
  [ ("default", Resim_tracegen.Generator.default_config);
    ( "perfect-rob32",
      Resim.generator_config
        { Config.reference with
          Config.predictor = Resim_bpred.Predictor.perfect_config;
          rob_entries = 32 } ) ]

let trace_table () =
  List.concat_map
    (fun kernel ->
      let program = Workload.program_of kernel () in
      List.map
        (fun (name, config) ->
          let result = Resim_tracegen.Generator.run ~config program in
          Printf.sprintf "trace %s %s correct=%d wrong=%d mispredicted=%d \
                          completed=%b %s"
            (Workload.name_of kernel) name result.correct_path
            result.wrong_path result.mispredicted_branches
            (result.correct_path < config.max_instructions)
            (Hash.string
               (Resim_trace.Codec.encode ~format:Resim_trace.Codec.Fixed
                  result.records)))
        generator_configs)
    (Workload.all @ Workload.extended)

let write_traces path =
  let oc = open_out path in
  List.iter (fun line -> output_string oc (line ^ "\n")) (trace_table ());
  close_out oc

let check_traces () =
  let expected =
    In_channel.with_open_text "golden_traces.txt" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun line -> line <> "")
  in
  let actual = trace_table () in
  Alcotest.(check int) "trace count" (List.length expected)
    (List.length actual);
  List.iter2 (Alcotest.(check string) "trace") expected actual

let suite =
  [ ("golden:digests",
     [ Alcotest.test_case "default engine" `Slow
         (check_against_table ~prepare:ignore);
       Alcotest.test_case "reference phases" `Slow
         (check_against_table ~prepare:Engine.use_reference) ]);
    ("golden:traces",
     [ Alcotest.test_case "generated traces" `Slow check_traces ]) ]
