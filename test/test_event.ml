(* Tests for the event-driven engine: the differential guarantee that
   the default engine (the closure family, event-driven) is cycle-,
   stats- and event-stream-identical to the reference phases (the
   paper's per-cycle scan) on every workload kernel, on handcrafted
   corner cases and on random synthetic traces across organizations,
   widths and memory systems. The harness is
   {!Test_spec.assert_identical}. *)

open Resim_core
module Record = Resim_trace.Record
module Synthetic = Resim_tracegen.Synthetic

(* ------------------------------------------------------------------- *)
(* Differential: every workload kernel (plus a synthetic eighth), both
   paper configurations.                                                *)

let kernel_records =
  (* Generated lazily once; reused by both engines and both
     configurations. *)
  lazy
    (let kernels =
       Resim_workloads.Workload.all @ Resim_workloads.Workload.extended
     in
     let from_kernels =
       List.map
         (fun kernel ->
           let name = Resim_workloads.Workload.name_of kernel in
           let program = Resim_workloads.Workload.program_of kernel () in
           (name, Resim_tracegen.Generator.records program))
         kernels
     in
     let synthetic =
       ( "synthetic",
         Synthetic.generate ~seed:7
           (Synthetic.balanced ~name:"eighth" ~instructions:4000) )
     in
     from_kernels @ [ synthetic ])

let test_kernels_reference () =
  List.iter
    (fun (name, records) ->
      Test_spec.assert_identical ~name Config.reference records)
    (Lazy.force kernel_records)

let test_kernels_fast_comparable () =
  List.iter
    (fun (name, records) ->
      Test_spec.assert_identical ~name Config.fast_comparable records)
    (Lazy.force kernel_records)

(* ------------------------------------------------------------------- *)
(* Differential: handcrafted corner cases.                              *)

let alu ?(wrong = false) ~pc ~dest ~src1 ~src2 () =
  { Record.pc; wrong_path = wrong; dest; src1; src2;
    payload = Record.Other { op_class = Record.Alu } }

let divide ~pc ~dest ~src1 () =
  { Record.pc; wrong_path = false; dest; src1; src2 = 0;
    payload = Record.Other { op_class = Record.Divide } }

let load ?(wrong = false) ~pc ~dest ~base ~addr () =
  { Record.pc; wrong_path = wrong; dest; src1 = base; src2 = 0;
    payload = Record.Memory { is_load = true; address = addr } }

let store ?(wrong = false) ~pc ~base ~data ~addr () =
  { Record.pc; wrong_path = wrong; dest = 0; src1 = base; src2 = data;
    payload = Record.Memory { is_load = false; address = addr } }

let branch ?(wrong = false) ~pc ~taken ~target () =
  { Record.pc; wrong_path = wrong; dest = 0; src1 = 1; src2 = 2;
    payload = Record.Branch { kind = Resim_isa.Opcode.Cond; taken; target } }

let test_corner_cases () =
  (* Forwarding store retires before the starved load issues: the load
     must fall back to a D-cache port in both engines. Width 1 keeps
     the load queued behind older ALU work. *)
  let narrow =
    { Config.reference with
      width = 1;
      ifq_entries = 1;
      decouple_entries = 1;
      alu_count = 1;
      mem_read_ports = 1;
      mem_write_ports = 1;
      organization = Config.Improved }
  in
  let forward_then_retire =
    Array.concat
      [ [| store ~pc:0 ~base:29 ~data:30 ~addr:64 () |];
        Array.init 6 (fun i -> alu ~pc:(1 + i) ~dest:3 ~src1:29 ~src2:0 ());
        [| load ~pc:7 ~dest:4 ~base:29 ~addr:64 () |] ]
  in
  Test_spec.assert_identical ~name:"forward-then-retire" narrow
    forward_then_retire;
  (* Broadcast bandwidth: a divider, a chain and independent ALUs all
     complete around the same cycles; more results can be due than the
     width-2 broadcast bus takes, forcing carry-over. *)
  let broadcast_pressure =
    Array.concat
      [ [| divide ~pc:0 ~dest:1 ~src1:29 () |];
        Array.init 20 (fun i ->
            alu ~pc:(1 + i) ~dest:(2 + (i mod 6)) ~src1:29 ~src2:0 ());
        [| alu ~pc:21 ~dest:8 ~src1:1 ~src2:0 () |] ]
  in
  let two_wide =
    { narrow with width = 2; ifq_entries = 2; decouple_entries = 2;
      alu_count = 2 }
  in
  Test_spec.assert_identical ~name:"broadcast-pressure" two_wide
    broadcast_pressure;
  (* Squash with in-flight long-latency work and a pending store: heap
     and pool entries for the squashed suffix must be discarded. *)
  let squash_with_inflight =
    Array.concat
      [ [| alu ~pc:0 ~dest:1 ~src1:29 ~src2:0 ();
           branch ~pc:1 ~taken:false ~target:40 () |];
        Array.init 8 (fun i ->
            if i = 0 then divide ~pc:(40 + i) ~dest:5 ~src1:29 ()
            else if i = 1 then store ~wrong:true ~pc:(40 + i) ~base:29
                   ~data:30 ~addr:128 ()
            else alu ~wrong:true ~pc:(40 + i) ~dest:(6 + (i mod 4))
                   ~src1:29 ~src2:0 ());
        [| alu ~pc:2 ~dest:2 ~src1:1 ~src2:0 ();
           load ~pc:3 ~dest:3 ~base:29 ~addr:128 () |] ]
  in
  (* The divider record above is on the wrong path only if tagged; tag
     it explicitly. *)
  squash_with_inflight.(2) <-
    { (squash_with_inflight.(2)) with Record.wrong_path = true };
  Test_spec.assert_identical ~name:"squash-inflight" Config.reference
    squash_with_inflight

(* ------------------------------------------------------------------- *)
(* Differential: random synthetic traces x organizations x widths.      *)

let differential_configs =
  (* Valid structural spread: every organization, widths 1-8, small
     windows (stress squash/full/port paths), and one cached memory
     system (stress latency variability). *)
  [| { Config.reference with
       organization = Config.Simple;
       width = 2;
       ifq_entries = 2;
       decouple_entries = 2;
       alu_count = 2;
       rob_entries = 8;
       lsq_entries = 4;
       mem_read_ports = 1;
       mem_write_ports = 1 };
     { Config.reference with
       organization = Config.Improved;
       width = 1;
       ifq_entries = 1;
       decouple_entries = 1;
       alu_count = 1;
       rob_entries = 4;
       lsq_entries = 2;
       mem_read_ports = 1;
       mem_write_ports = 1 };
     { Config.reference with
       organization = Config.Improved;
       width = 4;
       rob_entries = 32;
       lsq_entries = 16;
       mult_count = 2;
       icache = Resim_cache.Cache.l1_32k_8way_64b;
       dcache = Resim_cache.Cache.l1_32k_8way_64b };
     Config.reference;
     { Config.reference with
       organization = Config.Optimized;
       width = 8;
       ifq_entries = 8;
       decouple_entries = 8;
       alu_count = 8;
       rob_entries = 64;
       lsq_entries = 32;
       mem_read_ports = 4;
       mem_write_ports = 2 }
  |]

let synthetic_profile ~instructions ~loads ~stores ~branches ~divides
    ~dependency_density ~mispredict_rate ~working_set =
  { (Synthetic.balanced ~name:"diff" ~instructions) with
    loads;
    stores;
    branches;
    divides;
    mults = divides *. 4.0;
    dependency_density;
    mispredict_rate;
    working_set_bytes = working_set;
    sequential_locality = 0.5 }

let random_differential =
  (* The acceptance bar: >= 100 random traces, every organization and a
     width spread, equal cycles, full stats dumps and event streams. *)
  QCheck.Test.make ~name:"random traces match the reference cycle-exactly"
    ~count:120
    QCheck.(
      pair (int_bound 100_000)
        (pair (int_bound (Array.length differential_configs - 1))
           (pair (int_range 150 500) (int_bound 1000))))
    (fun (seed, (config_index, (instructions, knob))) ->
      let frac limit salt =
        float_of_int ((knob * salt) mod 1000) /. 1000.0 *. limit
      in
      let profile =
        synthetic_profile ~instructions ~loads:(0.05 +. frac 0.3 7)
          ~stores:(0.05 +. frac 0.2 13)
          ~branches:(0.05 +. frac 0.2 29)
          ~divides:(frac 0.01 3)
          ~dependency_density:(frac 0.9 17)
          ~mispredict_rate:(frac 0.25 11)
          ~working_set:(64 * (1 + (knob mod 64)))
      in
      let records = Synthetic.generate ~seed profile in
      Test_spec.identical differential_configs.(config_index) records)

let store_heavy_differential =
  (* Tiny working sets force dense store-to-load aliasing: the
     incremental LSQ reclassification is the code under stress. *)
  QCheck.Test.make
    ~name:"dense store-load aliasing matches the reference" ~count:40
    QCheck.(pair (int_bound 100_000) (int_range 0 4))
    (fun (seed, config_index) ->
      let profile =
        synthetic_profile ~instructions:300 ~loads:0.35 ~stores:0.3
          ~branches:0.08 ~divides:0.004 ~dependency_density:0.6
          ~mispredict_rate:0.1 ~working_set:64
      in
      let records = Synthetic.generate ~seed profile in
      Test_spec.identical differential_configs.(config_index) records)

(* ------------------------------------------------------------------- *)

let suite =
  [ ("event:differential",
     [ Alcotest.test_case "kernels, reference config" `Slow
         test_kernels_reference;
       Alcotest.test_case "kernels, fast-comparable config" `Slow
         test_kernels_fast_comparable;
       Alcotest.test_case "corner cases" `Quick test_corner_cases;
       QCheck_alcotest.to_alcotest random_differential;
       QCheck_alcotest.to_alcotest store_heavy_differential ]) ]
