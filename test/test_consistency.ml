(* Cross-cutting consistency tests: the three simulation pipelines
   (offline trace-driven, fused execution-driven, on-the-fly
   co-simulation) must agree on every kernel, and the engine's counters
   must satisfy their accounting identities on every input. *)

module Stats = Resim_core.Stats

let check = Alcotest.check
let bool = Alcotest.bool
let i64 = Alcotest.int64

let small_scale name = match name with "vpr" -> 1 | _ -> 768

let three_way_agreement () =
  List.iter
    (fun workload ->
      let name = Resim_workloads.Workload.name_of workload in
      let program =
        Resim_workloads.Workload.program_of workload
          ~scale:(small_scale name) ()
      in
      let offline = (Resim_core.Resim.simulate_program program).stats in
      let fused =
        (Resim_baseline.Sim_outorder.run program).outcome.stats
      in
      let cosim = (Resim_core.Cosim.run program).stats in
      (* Compare the complete counter state, not just headline numbers. *)
      let offline_counters = Stats.to_assoc offline in
      check bool (name ^ ": fused = offline") true
        (Stats.to_assoc fused = offline_counters);
      check bool (name ^ ": cosim = offline") true
        (Stats.to_assoc cosim = offline_counters))
    Resim_workloads.Workload.all

(* The offline pipeline and co-simulation share one default generator,
   so they agree on long runs too: gzip at its evaluation scale runs
   about 2.1 M instructions. *)
let cosim_at_evaluation_scale () =
  let workload = Resim_workloads.Workload.find "gzip" in
  let program =
    Resim_workloads.Workload.program_of workload
      ~scale:Resim_workloads.Gzip_like.evaluation_scale ()
  in
  let offline = (Resim_core.Resim.simulate_program program).stats in
  let cosim = Resim_core.Cosim.run program in
  check bool "past 1 M instructions" true
    (Int64.compare (Stats.get Stats.committed offline) 1_000_000L > 0);
  check i64 "cosim commits = offline commits"
    (Stats.get Stats.committed offline)
    (Stats.get Stats.committed cosim.stats);
  check bool "cosim = offline" true
    (Stats.to_assoc cosim.stats = Stats.to_assoc offline)

let accounting_identities stats =
  let get field = Stats.get field stats in
  let committed = get Stats.committed in
  let categorised =
    List.fold_left Int64.add 0L
      [ get Stats.committed_branches; get Stats.committed_loads;
        get Stats.committed_stores; get Stats.committed_mult_div ]
  in
  check bool "committed covers categories" true
    (Int64.compare categorised committed <= 0);
  check bool "pipeline funnel fetched >= dispatched" true
    (Int64.compare (get Stats.fetched) (get Stats.dispatched) >= 0);
  check bool "funnel dispatched >= issued" true
    (Int64.compare (get Stats.dispatched) (get Stats.issued) >= 0);
  check bool "funnel issued >= committed" true
    (Int64.compare (get Stats.issued) committed >= 0);
  check bool "conditional <= branches" true
    (Int64.compare
       (get Stats.committed_cond_branches)
       (get Stats.committed_branches)
    <= 0);
  check bool "forwarded <= loads" true
    (Int64.compare (get Stats.forwarded_loads) (get Stats.committed_loads)
    <= 0);
  check bool "squashes <= conditional branches" true
    (Int64.compare (get Stats.mispredictions)
       (get Stats.committed_cond_branches)
    <= 0)

let test_accounting_on_kernels () =
  List.iter
    (fun workload ->
      let name = Resim_workloads.Workload.name_of workload in
      let program =
        Resim_workloads.Workload.program_of workload
          ~scale:(small_scale name) ()
      in
      accounting_identities (Resim_core.Resim.simulate_program program).stats)
    Resim_workloads.Workload.all

let accounting_on_synthetic =
  QCheck.Test.make
    ~name:"counter identities hold on random synthetic traces" ~count:25
    QCheck.(int_bound 100_000)
    (fun seed ->
      let profile =
        { (Resim_tracegen.Synthetic.balanced ~name:"acct"
             ~instructions:1500)
          with mispredict_rate = 0.06 }
      in
      let records = Resim_tracegen.Synthetic.generate ~seed profile in
      let stats = Resim_core.Engine.simulate records in
      let get field = Stats.get field stats in
      Int64.compare (get Stats.fetched) (get Stats.dispatched) >= 0
      && Int64.compare (get Stats.dispatched) (get Stats.issued) >= 0
      && Int64.compare (get Stats.issued) (get Stats.committed) >= 0
      && Int64.compare (get Stats.forwarded_loads)
           (get Stats.committed_loads)
         <= 0)

let test_wrong_path_conservation () =
  (* Every tagged record is either fetched or discarded; nothing is
     lost or double-counted. *)
  let gzip = Resim_workloads.Workload.find "gzip" in
  let program = Resim_workloads.Workload.program_of gzip ~scale:4096 () in
  let generated = Resim_tracegen.Generator.run program in
  let stats = Resim_core.Engine.simulate generated.records in
  check i64 "wrong path conserved"
    (Int64.of_int generated.wrong_path)
    (Int64.add
       (Stats.get Stats.fetched_wrong_path stats)
       (Stats.get Stats.discarded_wrong_path stats));
  check i64 "correct path all committed"
    (Int64.of_int generated.correct_path)
    (Stats.get Stats.committed stats)

let test_dcache_access_accounting () =
  (* With real caches, D-cache accesses = issued load accesses (correct
     and wrong path) + committed store writes. *)
  let config =
    { Resim_core.Config.reference with
      dcache = Resim_cache.Cache.l1_32k_8way_64b }
  in
  let gzip = Resim_workloads.Workload.find "gzip" in
  let program = Resim_workloads.Workload.program_of gzip ~scale:2048 () in
  let records = Resim_tracegen.Generator.records program in
  let engine = Resim_core.Engine.create ~config records in
  ignore (Resim_core.Engine.run engine);
  let stats = Resim_core.Engine.stats engine in
  let dcache = Resim_cache.Cache.stats (Resim_core.Engine.dcache engine) in
  let stores = Stats.get Stats.committed_stores stats in
  check bool "dcache accesses >= loads + stores" true
    (Int64.compare dcache.accesses
       (Int64.add
          (Int64.sub
             (Stats.get Stats.committed_loads stats)
             (Stats.get Stats.forwarded_loads stats))
          stores)
    >= 0)

let test_to_assoc_complete () =
  let stats = Stats.create () in
  let assoc = Stats.to_assoc stats in
  check bool "26 counters exported" true (List.length assoc = 26);
  check bool "all zero initially" true
    (List.for_all (fun (_, v) -> Int64.equal v 0L) assoc);
  let names = List.map fst assoc in
  check bool "names unique" true
    (List.length (List.sort_uniq String.compare names) = List.length names)

let suite =
  [ ("consistency",
     [ Alcotest.test_case "three pipelines agree on all kernels" `Slow
         three_way_agreement;
       Alcotest.test_case "cosim = offline at evaluation scale" `Slow
         cosim_at_evaluation_scale;
       Alcotest.test_case "accounting identities (kernels)" `Slow
         test_accounting_on_kernels;
       QCheck_alcotest.to_alcotest accounting_on_synthetic;
       Alcotest.test_case "wrong-path conservation" `Quick
         test_wrong_path_conservation;
       Alcotest.test_case "dcache accounting" `Quick
         test_dcache_access_accounting;
       Alcotest.test_case "stats export" `Quick test_to_assoc_complete ]) ]
