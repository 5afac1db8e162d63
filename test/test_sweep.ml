(* Tests for the domain-parallel sweep layer: the parallel map, the
   sweep runner's determinism across -j values, and the reworked
   (config-keyed, domain-safe) report runner cache. *)

module Pool = Resim_sweep.Pool
module Sweep = Resim_sweep.Sweep
module Runner = Resim_reports.Runner
module Stats = Resim_core.Stats

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let i64 = Alcotest.int64

(* --- Pool --------------------------------------------------------------- *)

let test_pool_map_order () =
  let input = Array.init 100 (fun i -> i) in
  let serial = Array.map (fun i -> i * i) input in
  (* jobs = 0 runs serially on the calling domain. *)
  List.iter
    (fun jobs ->
      check bool
        (Printf.sprintf "results in input order at jobs = %d" jobs)
        true
        (Pool.map ~jobs (fun i -> i * i) input = serial))
    [ 0; 1; 4 ];
  (* More jobs than elements: one domain per element. *)
  check bool "jobs larger than the input" true
    (Pool.map ~jobs:8 (fun i -> i * i) (Array.sub input 0 3) = [| 0; 1; 4 |]);
  check bool "empty input" true (Pool.map ~jobs:4 (fun i -> i) [||] = [||])

let test_pool_map_uneven_work () =
  (* Make late-claimed elements finish first; order must still hold. *)
  let input = Array.init 16 (fun i -> i) in
  let work i =
    let spin = (16 - i) * 10_000 in
    let acc = ref 0 in
    for k = 1 to spin do
      acc := !acc + (k land 7)
    done;
    (i, !acc land 0)
  in
  let results = Pool.map ~jobs:4 work input in
  Array.iteri
    (fun index (i, zero) ->
      check int "slot matches input index" index i;
      check int "work ran" 0 zero)
    results

exception Boom of int

let test_pool_exception_propagates () =
  (* Elements 3 and 11 raise: every element still runs, and the
     lowest-index exception is the one re-raised. *)
  let ran = Array.init 16 (fun _ -> Atomic.make false) in
  let element i =
    Atomic.set ran.(i) true;
    if i = 3 || i = 11 then raise (Boom i) else i
  in
  (match Pool.map ~jobs:4 element (Array.init 16 (fun i -> i)) with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom i -> check int "element 3's exception is raised" 3 i);
  check bool "all 16 elements ran" true (Array.for_all Atomic.get ran)

let test_pool_validation () =
  check bool "recommended >= 1" true (Pool.recommended_jobs () >= 1)

(* --- Sweep determinism --------------------------------------------------- *)

let small_grid () =
  let find = Resim_workloads.Workload.find in
  let reference = Resim_core.Config.reference in
  [ Sweep.job ~label:"gzip-ref" ~scale:(Sweep.Exact 512) ~config:reference
      (find "gzip");
    Sweep.job ~label:"parser-ref" ~scale:(Sweep.Exact 512)
      ~config:reference (find "parser");
    Sweep.job ~label:"gzip-rob32" ~scale:(Sweep.Exact 512)
      ~config:{ reference with rob_entries = 32 } (find "gzip");
    Sweep.job ~label:"vortex-fast" ~scale:(Sweep.Exact 256)
      ~config:Resim_core.Config.fast_comparable (find "vortex") ]

let test_sweep_parallel_equals_serial () =
  let grid = small_grid () in
  let serial = Sweep.completed (Sweep.run ~jobs:1 grid) in
  let parallel = Sweep.completed (Sweep.run ~jobs:4 grid) in
  check int "same job count" (List.length serial) (List.length parallel);
  List.iter2
    (fun (a : Sweep.result) (b : Sweep.result) ->
      check bool (a.job.label ^ " same job") true (a.job.label = b.job.label);
      (* Byte-identical traces... *)
      check bool
        (a.job.label ^ " byte-identical trace")
        true
        (Resim_trace.Codec.encode a.generated.records
        = Resim_trace.Codec.encode b.generated.records);
      (* ...and identical timing outcomes. *)
      check i64
        (a.job.label ^ " same major cycles")
        (Stats.get Stats.major_cycles a.outcome.stats)
        (Stats.get Stats.major_cycles b.outcome.stats);
      check i64
        (a.job.label ^ " same committed")
        (Stats.get Stats.committed a.outcome.stats)
        (Stats.get Stats.committed b.outcome.stats);
      check bool
        (a.job.label ^ " same bits/instr")
        true
        (a.outcome.bits_per_instruction = b.outcome.bits_per_instruction))
    serial parallel

(* High-parallelism determinism, the runtime counterpart of the
   resim-dsafe static gate: the same grid must produce the same report
   at -j 1/4/8, with the default policy's progress watchdog armed so a
   pool regression shows up as a bounded deadlock report instead of a
   hang. *)
let fingerprint report =
  List.map
    (fun (r : Sweep.result) ->
      ( r.job.label,
        Stats.get Stats.major_cycles r.outcome.stats,
        Stats.get Stats.committed r.outcome.stats,
        r.outcome.bits_per_instruction ))
    (Sweep.completed report)

let test_sweep_high_j_deterministic () =
  let grid = small_grid () in
  let run jobs =
    fingerprint (Sweep.run ~policy:Sweep.default_policy ~jobs grid)
  in
  let reference = run 1 in
  check int "all jobs completed serially" (List.length grid)
    (List.length reference);
  List.iter
    (fun jobs ->
      check bool
        (Printf.sprintf "-j %d report = serial" jobs)
        true
        (run jobs = reference))
    [ 4; 8 ]

let test_sweep_telemetry () =
  let results =
    Sweep.completed
      (Sweep.run ~jobs:2
         [ Sweep.job ~scale:(Sweep.Exact 256)
             ~config:Resim_core.Config.reference
             (Resim_workloads.Workload.find "gzip") ])
  in
  match results with
  | [ result ] ->
      check bool "wall time measured" true
        (result.telemetry.wall_seconds >= 0.0);
      check bool "host MIPS non-negative" true
        (result.telemetry.host_mips >= 0.0);
      check bool "total wall = sum" true
        (Sweep.total_wall results = result.telemetry.wall_seconds);
      let rendered = Format.asprintf "%a" Sweep.pp_table results in
      check bool "table renders the row" true
        (String.length rendered > 100)
  | _ -> Alcotest.fail "expected one result"

(* --- Runner cache -------------------------------------------------------- *)

let test_runner_keying_sees_config () =
  (* Two configurations behind the same key must not alias: the ROB size
     changes both the wrong-path block length (trace generation) and the
     timing, so everything must differ. *)
  Runner.clear_cache ();
  let workload = Resim_workloads.Workload.find "gzip" in
  let reference = Resim_core.Config.reference in
  let a =
    Runner.run_kernel ~key:"same-key" ~config:reference
      ~scale:(Runner.Exact 512) workload
  in
  let b =
    Runner.run_kernel ~key:"same-key"
      ~config:{ reference with rob_entries = 32 }
      ~scale:(Runner.Exact 512) workload
  in
  check bool "distinct cache entries" true (a != b);
  check bool "config preserved per entry" true
    (a.outcome.config.rob_entries = 16 && b.outcome.config.rob_entries = 32);
  check bool "different wrong-path blocks" true
    (a.generated.wrong_path <> b.generated.wrong_path
    || Array.length a.generated.records <> Array.length b.generated.records);
  Runner.clear_cache ()

let test_runner_prewarm_seeds_cache () =
  Runner.clear_cache ();
  let workload = Resim_workloads.Workload.find "parser" in
  let config = Resim_core.Config.reference in
  let request =
    Runner.request ~key:"warm" ~config ~scale:(Runner.Exact 512) workload
  in
  (* Duplicates collapse to one job; re-prewarming is a no-op. *)
  Runner.prewarm [ request; request ];
  let a =
    Runner.run_kernel ~key:"warm" ~config ~scale:(Runner.Exact 512) workload
  in
  let b =
    Runner.run_kernel ~key:"other-label" ~config ~scale:(Runner.Exact 512)
      workload
  in
  check bool "run_kernel hits the prewarmed entry" true (a == b);
  Runner.prewarm [ request ];
  let c =
    Runner.run_kernel ~key:"warm" ~config ~scale:(Runner.Exact 512) workload
  in
  check bool "re-prewarm keeps the entry" true (a == c);
  Runner.clear_cache ()

let test_runner_domain_safety () =
  (* Concurrent misses on the same request from several domains: every
     caller must come back with the single winning cache entry. *)
  Runner.clear_cache ();
  let workload = Resim_workloads.Workload.find "gzip" in
  let config = Resim_core.Config.reference in
  let run () =
    Runner.run_kernel ~key:"racy" ~config ~scale:(Runner.Exact 256) workload
  in
  let domains = Array.init 4 (fun _ -> Domain.spawn run) in
  let results = Array.map Domain.join domains in
  Array.iter
    (fun result ->
      check bool "all callers share one entry" true (result == results.(0)))
    results;
  check bool "subsequent call hits too" true (run () == results.(0));
  Runner.clear_cache ()

let test_ablation_grid_shape () =
  let requests = Resim_reports.Ablations.requests () in
  check bool "covers the tables and ablations" true
    (List.length requests >= 20);
  (* Workload.all twice (table1 left/right), gzip ablations, and the
     default-scale batch; each request maps to a runnable sweep job. *)
  List.iter
    (fun request ->
      let job = Runner.job_of_request request in
      check bool "label carries the key" true
        (String.length job.Sweep.label > String.length request.Runner.key))
    requests

let suite =
  [ ("sweep:pool",
     [ Alcotest.test_case "map preserves order" `Quick test_pool_map_order;
       Alcotest.test_case "uneven work" `Quick test_pool_map_uneven_work;
       Alcotest.test_case "exceptions propagate" `Quick
         test_pool_exception_propagates;
       Alcotest.test_case "validation" `Quick test_pool_validation ]);
    ("sweep:determinism",
     [ Alcotest.test_case "-j 4 = serial (byte-identical)" `Quick
         test_sweep_parallel_equals_serial;
       Alcotest.test_case "-j 1/4/8 (watchdog armed)" `Quick
         test_sweep_high_j_deterministic;
       Alcotest.test_case "telemetry" `Quick test_sweep_telemetry ]);
    ("sweep:runner",
     [ Alcotest.test_case "cache keyed on config" `Quick
         test_runner_keying_sees_config;
       Alcotest.test_case "prewarm seeds cache" `Quick
         test_runner_prewarm_seeds_cache;
       Alcotest.test_case "domain-safe cache" `Quick
         test_runner_domain_safety;
       Alcotest.test_case "ablation grid" `Quick test_ablation_grid_shape ])
  ]
