(* Tests for the branch-predictor unit: saturating counters, direction
   predictors, BTB, RAS and the composed unit. *)

open Resim_bpred

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* --- saturating counters -------------------------------------------- *)

(* A counter's value shows through [predict_taken]: from value [v], [n]
   trains towards the other side flip the prediction exactly when they
   cross the threshold (2 for a 2-bit counter). *)
let train_times c ~taken n =
  for _ = 1 to n do Saturating.train c ~taken done

let test_counter_basics () =
  let c = Saturating.create () in
  check bool "weakly taken initially" true (Saturating.predict_taken c);
  Saturating.train c ~taken:false;
  check bool "one down: not taken" false (Saturating.predict_taken c);
  train_times c ~taken:false 5;
  Saturating.train c ~taken:true;
  check bool "saturates at zero: one up stays not taken" false
    (Saturating.predict_taken c);
  Saturating.train c ~taken:true;
  check bool "back to taken" true (Saturating.predict_taken c);
  train_times c ~taken:true 5;
  Saturating.train c ~taken:false;
  check bool "saturates at max 3: one down stays taken" true
    (Saturating.predict_taken c);
  Saturating.train c ~taken:false;
  check bool "two down: not taken" false (Saturating.predict_taken c)

let test_counter_initial_clamped () =
  let c = Saturating.create ~initial:99 () in
  Saturating.train c ~taken:false;
  check bool "clamped to max: one down stays taken" true
    (Saturating.predict_taken c);
  Saturating.train c ~taken:false;
  check bool "clamped to max: two down not taken" false
    (Saturating.predict_taken c);
  let c = Saturating.create ~initial:(-5) () in
  Saturating.train c ~taken:true;
  check bool "clamped to zero: one up stays not taken" false
    (Saturating.predict_taken c);
  Saturating.train c ~taken:true;
  check bool "clamped to zero: two up taken" true (Saturating.predict_taken c)

(* --- direction predictors ------------------------------------------- *)

let test_perfect () =
  let p = Direction.create Direction.Perfect in
  check bool "echoes actual true" true (Direction.predict p ~pc:1 ~actual:true);
  check bool "echoes actual false" false
    (Direction.predict p ~pc:1 ~actual:false)

let test_static () =
  let taken = Direction.create Direction.Static_taken in
  let not_taken = Direction.create Direction.Static_not_taken in
  check bool "static taken" true (Direction.predict taken ~pc:3 ~actual:false);
  check bool "static not-taken" false
    (Direction.predict not_taken ~pc:3 ~actual:true)

let test_bimodal_learns () =
  let p = Direction.create (Direction.Bimodal { table_entries = 64 }) in
  for _ = 1 to 4 do Direction.update p ~pc:10 ~taken:false done;
  check bool "learned not-taken" false
    (Direction.predict p ~pc:10 ~actual:true);
  for _ = 1 to 4 do Direction.update p ~pc:10 ~taken:true done;
  check bool "relearned taken" true (Direction.predict p ~pc:10 ~actual:false)

let test_two_level_learns_pattern () =
  (* A strictly alternating branch is invisible to a bimodal predictor
     but trivial for a two-level predictor with history. *)
  let p = Direction.create Direction.two_level_default in
  let outcome i = i mod 2 = 0 in
  for i = 1 to 200 do
    Direction.update p ~pc:5 ~taken:(outcome i)
  done;
  let correct = ref 0 in
  for i = 201 to 300 do
    if Direction.predict p ~pc:5 ~actual:(outcome i) = outcome i then
      incr correct;
    Direction.update p ~pc:5 ~taken:(outcome i)
  done;
  check bool "alternating pattern learned (>95%)" true (!correct > 95)

let test_gshare_learns () =
  let p =
    Direction.create (Direction.Gshare { history_bits = 8; pht_entries = 1024 })
  in
  let outcome i = i mod 3 = 0 in
  for i = 1 to 300 do Direction.update p ~pc:9 ~taken:(outcome i) done;
  let correct = ref 0 in
  for i = 301 to 400 do
    if Direction.predict p ~pc:9 ~actual:(outcome i) = outcome i then
      incr correct;
    Direction.update p ~pc:9 ~taken:(outcome i)
  done;
  check bool "period-3 pattern learned (>90%)" true (!correct > 90)

let test_two_level_tiny_pht () =
  (* A PHT smaller than the history span still indexes safely. *)
  let p =
    Direction.create
      (Direction.Two_level
         { bht_entries = 2; history_bits = 8; pht_entries = 16 })
  in
  for i = 1 to 200 do
    ignore (Direction.predict p ~pc:i ~actual:(i mod 2 = 0));
    Direction.update p ~pc:i ~taken:(i mod 2 = 0)
  done;
  check bool "no crash, sane output" true
    (Direction.predict p ~pc:7 ~actual:true = true
    || Direction.predict p ~pc:7 ~actual:true = false)

let test_direction_validation () =
  Alcotest.check_raises "zero entries"
    (Invalid_argument "Direction.create: table_entries must be positive")
    (fun () ->
      ignore (Direction.create (Direction.Bimodal { table_entries = 0 })))

(* --- BTB ------------------------------------------------------------- *)

let test_btb_miss_then_hit () =
  let btb = Btb.create Btb.default_config in
  check bool "cold miss" true (Btb.lookup btb ~pc:100 = None);
  Btb.update btb ~pc:100 ~target:7;
  check bool "hit after update" true (Btb.lookup btb ~pc:100 = Some 7);
  Btb.update btb ~pc:100 ~target:9;
  check bool "target refreshed" true (Btb.lookup btb ~pc:100 = Some 9)

let test_btb_direct_mapped_conflict () =
  let btb = Btb.create { Btb.entries = 16; associativity = 1 } in
  Btb.update btb ~pc:3 ~target:30;
  Btb.update btb ~pc:19 ~target:190;
  check bool "conflicting entry evicted" true (Btb.lookup btb ~pc:3 = None);
  check bool "new entry present" true (Btb.lookup btb ~pc:19 = Some 190)

let test_btb_associative_retains () =
  let btb = Btb.create { Btb.entries = 16; associativity = 2 } in
  (* pcs 3 and 11 share set 3 of 8 sets. *)
  Btb.update btb ~pc:3 ~target:30;
  Btb.update btb ~pc:11 ~target:110;
  check bool "way 1 retained" true (Btb.lookup btb ~pc:3 = Some 30);
  check bool "way 2 retained" true (Btb.lookup btb ~pc:11 = Some 110);
  (* A third conflicting pc evicts the least recently used (pc 3 was
     touched by the lookup above, then 11; so 3 is older). *)
  Btb.update btb ~pc:19 ~target:190;
  check bool "LRU way evicted" true (Btb.lookup btb ~pc:3 = None);
  check bool "MRU way kept" true (Btb.lookup btb ~pc:11 = Some 110)

let test_btb_validation () =
  Alcotest.check_raises "assoc divides entries"
    (Invalid_argument "Btb.create: associativity must divide entries")
    (fun () -> ignore (Btb.create { Btb.entries = 10; associativity = 4 }))

(* --- RAS -------------------------------------------------------------- *)

let test_ras_lifo () =
  let ras = Ras.create 4 in
  check bool "empty pop" true (Ras.pop ras = None);
  Ras.push ras 10;
  Ras.push ras 20;
  check bool "pop 20" true (Ras.pop ras = Some 20);
  check bool "pop 10" true (Ras.pop ras = Some 10);
  check bool "empty again" true (Ras.pop ras = None)

let test_ras_overflow_wraps () =
  let ras = Ras.create 2 in
  Ras.push ras 1;
  Ras.push ras 2;
  Ras.push ras 3;
  check bool "newest first" true (Ras.pop ras = Some 3);
  check bool "then second" true (Ras.pop ras = Some 2);
  check bool "oldest lost" true (Ras.pop ras = None)

let test_ras_snapshot_restore () =
  let ras = Ras.create 4 in
  Ras.push ras 5;
  Ras.push ras 6;
  let saved = Ras.snapshot ras in
  ignore (Ras.pop ras);
  Ras.push ras 99;
  Ras.push ras 98;
  Ras.restore ras saved;
  check bool "restored top" true (Ras.pop ras = Some 6);
  check bool "restored next" true (Ras.pop ras = Some 5)

let test_ras_restore_mismatch () =
  let ras = Ras.create 4 in
  let other = Ras.create 8 in
  Alcotest.check_raises "depth mismatch"
    (Invalid_argument "Ras.restore: depth mismatch") (fun () ->
      Ras.restore ras (Ras.snapshot other))

let test_ras_invalid_depth () =
  Alcotest.check_raises "zero depth"
    (Invalid_argument "Ras.create: depth must be positive") (fun () ->
      ignore (Ras.create 0))

(* --- composed predictor unit ------------------------------------------ *)

let test_unit_oracle () =
  let p = Predictor.create Predictor.perfect_config in
  let prediction =
    Predictor.predict p ~pc:4 ~kind:Resim_isa.Opcode.Cond ~fallthrough:5
      ~actual_taken:true ~actual_target:42
  in
  check bool "oracle direction" true prediction.taken;
  check bool "oracle target" true (prediction.target = Some 42);
  let prediction =
    Predictor.predict p ~pc:4 ~kind:Resim_isa.Opcode.Cond ~fallthrough:5
      ~actual_taken:false ~actual_target:42
  in
  check bool "oracle not-taken" false prediction.taken

let test_unit_cond_not_taken_has_no_target () =
  let p =
    Predictor.create
      { Predictor.default_config with
        direction = Direction.Static_not_taken }
  in
  let prediction =
    Predictor.predict p ~pc:4 ~kind:Resim_isa.Opcode.Cond ~fallthrough:5
      ~actual_taken:true ~actual_target:42
  in
  check bool "not taken" false prediction.taken;
  check bool "no target" true (prediction.target = None)

let test_unit_call_return_pair () =
  let p = Predictor.create Predictor.default_config in
  (* A call from pc 10 pushes its fall-through (11). *)
  ignore
    (Predictor.predict p ~pc:10 ~kind:Resim_isa.Opcode.Call ~fallthrough:11
       ~actual_taken:true ~actual_target:50);
  let ret =
    Predictor.predict p ~pc:60 ~kind:Resim_isa.Opcode.Ret ~fallthrough:61
      ~actual_taken:true ~actual_target:11
  in
  check bool "return target from RAS" true (ret.target = Some 11);
  check bool "came from RAS" true ret.from_ras

let test_unit_btb_training () =
  let p = Predictor.create Predictor.default_config in
  let before =
    Predictor.predict p ~pc:7 ~kind:Resim_isa.Opcode.Jump ~fallthrough:8
      ~actual_taken:true ~actual_target:70
  in
  check bool "cold jump has no target" true (before.target = None);
  Predictor.update p ~pc:7 ~kind:Resim_isa.Opcode.Jump ~taken:true ~target:70;
  let after =
    Predictor.predict p ~pc:7 ~kind:Resim_isa.Opcode.Jump ~fallthrough:8
      ~actual_taken:true ~actual_target:70
  in
  check bool "trained target" true (after.target = Some 70)

let test_unit_ras_repair () =
  let p = Predictor.create Predictor.default_config in
  ignore
    (Predictor.predict p ~pc:1 ~kind:Resim_isa.Opcode.Call ~fallthrough:2
       ~actual_taken:true ~actual_target:10);
  let saved = Predictor.ras_snapshot p in
  (* Wrong-path call pollutes the RAS ... *)
  ignore
    (Predictor.predict p ~pc:20 ~kind:Resim_isa.Opcode.Call ~fallthrough:21
       ~actual_taken:true ~actual_target:30);
  Predictor.ras_restore p saved;
  (* ... but after repair the return still sees the first call. *)
  let ret =
    Predictor.predict p ~pc:15 ~kind:Resim_isa.Opcode.Ret ~fallthrough:16
      ~actual_taken:true ~actual_target:2
  in
  check bool "repaired return target" true (ret.target = Some 2)

(* --- properties -------------------------------------------------------- *)

let btb_lookup_after_update =
  QCheck.Test.make ~name:"btb: lookup after update returns the target"
    ~count:100
    QCheck.(pair (int_bound 10_000) (int_bound 10_000))
    (fun (pc, target) ->
      let btb = Btb.create Btb.default_config in
      Btb.update btb ~pc ~target;
      Btb.lookup btb ~pc = Some target)

let ras_push_pop_identity =
  QCheck.Test.make ~name:"ras: pushes pop back in reverse order (within depth)"
    ~count:100
    QCheck.(list_of_size (Gen.int_range 1 16) (int_bound 100_000))
    (fun addresses ->
      let depth = 16 in
      let ras = Ras.create depth in
      List.iter (Ras.push ras) addresses;
      let rec drain acc =
        match Ras.pop ras with
        | Some a -> drain (a :: acc)
        | None -> acc
      in
      let drained = drain [] in
      (* The last [depth] pushes come back, oldest-first after the
         accumulation above. *)
      let expected =
        let n = List.length addresses in
        if n <= depth then addresses
        else List.filteri (fun i _ -> i >= n - depth) addresses
      in
      drained = expected)

let suite =
  [ ("bpred:saturating",
     [ Alcotest.test_case "basics" `Quick test_counter_basics;
       Alcotest.test_case "initial clamp" `Quick test_counter_initial_clamped
     ]);
    ("bpred:direction",
     [ Alcotest.test_case "perfect" `Quick test_perfect;
       Alcotest.test_case "static" `Quick test_static;
       Alcotest.test_case "bimodal learns" `Quick test_bimodal_learns;
       Alcotest.test_case "two-level learns alternation" `Quick
         test_two_level_learns_pattern;
       Alcotest.test_case "gshare learns period-3" `Quick test_gshare_learns;
       Alcotest.test_case "tiny PHT" `Quick test_two_level_tiny_pht;
       Alcotest.test_case "validation" `Quick test_direction_validation ]);
    ("bpred:btb",
     [ Alcotest.test_case "miss then hit" `Quick test_btb_miss_then_hit;
       Alcotest.test_case "direct-mapped conflict" `Quick
         test_btb_direct_mapped_conflict;
       Alcotest.test_case "associative retention + LRU" `Quick
         test_btb_associative_retains;
       Alcotest.test_case "validation" `Quick test_btb_validation ]);
    ("bpred:ras",
     [ Alcotest.test_case "LIFO" `Quick test_ras_lifo;
       Alcotest.test_case "overflow wraps" `Quick test_ras_overflow_wraps;
       Alcotest.test_case "snapshot/restore" `Quick test_ras_snapshot_restore;
       Alcotest.test_case "restore mismatch" `Quick test_ras_restore_mismatch;
       Alcotest.test_case "invalid depth" `Quick test_ras_invalid_depth ]);
    ("bpred:unit",
     [ Alcotest.test_case "oracle" `Quick test_unit_oracle;
       Alcotest.test_case "cond not-taken" `Quick
         test_unit_cond_not_taken_has_no_target;
       Alcotest.test_case "call/return RAS" `Quick test_unit_call_return_pair;
       Alcotest.test_case "BTB training" `Quick test_unit_btb_training;
       Alcotest.test_case "RAS repair" `Quick test_unit_ras_repair ]);
    ("bpred:properties",
     [ QCheck_alcotest.to_alcotest btb_lookup_after_update;
       QCheck_alcotest.to_alcotest ras_push_pop_identity ]) ]
