(* Tests for the ReSim core: ring buffers, configuration, minor-cycle
   schedules, rename table, functional units, ROB, LSQ and the timing
   engine itself (micro-traces with known answers, invariants, and the
   organization-equivalence property). *)

open Resim_core
module Record = Resim_trace.Record

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let i64 = Alcotest.int64

(* ------------------------------------------------------------------- *)
(* Record builders for handcrafted micro-traces.                        *)

let alu ?(wrong = false) ~pc ~dest ~src1 ~src2 () =
  { Record.pc; wrong_path = wrong; dest; src1; src2;
    payload = Record.Other { op_class = Record.Alu } }

let mult ~pc ~dest ~src1 () =
  { Record.pc; wrong_path = false; dest; src1; src2 = 0;
    payload = Record.Other { op_class = Record.Mult } }

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

(* [n] independent single-cycle instructions with distinct registers. *)
let independent_alus ?(start_pc = 0) n =
  Array.init n (fun i ->
      alu ~pc:(start_pc + i) ~dest:(1 + (i mod 28)) ~src1:29 ~src2:30 ())

(* A serial dependency chain: each instruction reads the previous
   destination. *)
let dependent_alus n =
  Array.init n (fun i ->
      let dest = 1 + (i mod 2) in
      let src = 1 + ((i + 1) mod 2) in
      alu ~pc:i ~dest ~src1:src ~src2:0 ())

let run ?(config = Config.reference) records =
  Engine.run (Engine.create ~config records)

let cycles stats = Stats.get Stats.major_cycles stats
let committed stats = Stats.get Stats.committed stats

(* ------------------------------------------------------------------- *)
(* Ring                                                                  *)

(* The ring's contents, oldest first. *)
let ring_list ring =
  let values = ref [] in
  Ring.iter (fun v -> values := v :: !values) ring;
  List.rev !values

let test_ring_order () =
  let ring = Ring.create ~capacity:4 in
  check bool "empty" true (Ring.is_empty ring);
  Ring.push ring 1;
  Ring.push ring 2;
  Ring.push ring 3;
  check int "length" 3 (Ring.length ring);
  check int "front oldest" 1 (Ring.front ring);
  check bool "pop order" true (Ring.pop ring = Some 1);
  check bool "pop order 2" true (Ring.pop ring = Some 2);
  Ring.push ring 4;
  Ring.push ring 5;
  Ring.push ring 6;
  check bool "full" true (Ring.is_full ring);
  check bool "wraps correctly" true (ring_list ring = [ 3; 4; 5; 6 ])

let test_ring_full_push_fails () =
  let ring = Ring.create ~capacity:1 in
  Ring.push ring 0;
  Alcotest.check_raises "push full" (Failure "Ring.push: full") (fun () ->
      Ring.push ring 1)

let test_ring_get_and_iter () =
  let ring = Ring.create ~capacity:8 in
  List.iter (Ring.push ring) [ 10; 20; 30 ];
  check int "get 0" 10 (Ring.get ring 0);
  check int "get 2" 30 (Ring.get ring 2);
  Alcotest.check_raises "get out of range"
    (Invalid_argument "Ring.get: out of range") (fun () ->
      ignore (Ring.get ring 3));
  let order = ref [] in
  Ring.iter (fun v -> order := v :: !order) ring;
  check bool "iter oldest-first" true (List.rev !order = [ 10; 20; 30 ])

let test_ring_drop_while_back () =
  let ring = Ring.create ~capacity:8 in
  List.iter (Ring.push ring) [ 1; 2; 7; 8; 9 ];
  let dropped = Ring.drop_while_back (fun v -> v > 5) ring in
  check int "dropped" 3 dropped;
  check bool "remaining" true (ring_list ring = [ 1; 2 ])

let ring_matches_list_model =
  (* Some v = push v (when not full), None = pop; the ring must agree
     with a plain list queue at every step. *)
  QCheck.Test.make ~name:"ring behaves like a bounded FIFO list" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 200) (option (int_bound 1000)))
    (fun ops ->
      let ring = Ring.create ~capacity:8 in
      let model = ref [] in
      List.for_all
        (fun op ->
          match op with
          | Some value ->
              if List.length !model < 8 then begin
                Ring.push ring value;
                model := !model @ [ value ];
                Ring.length ring = List.length !model
                && ring_list ring = !model
              end
              else Ring.is_full ring
          | None ->
              let expected =
                match !model with
                | [] -> None
                | x :: rest ->
                    model := rest;
                    Some x
              in
              Ring.pop ring = expected)
        ops)

(* ------------------------------------------------------------------- *)
(* Config                                                                *)

let test_config_latency_formulas () =
  List.iter
    (fun width ->
      check int "simple" ((2 * width) + 3)
        (Config.minor_cycles_per_major Config.Simple ~width);
      check int "improved" (width + 4)
        (Config.minor_cycles_per_major Config.Improved ~width);
      check int "optimized" (width + 3)
        (Config.minor_cycles_per_major Config.Optimized ~width))
    [ 1; 2; 4; 8; 16 ]

let test_config_validation () =
  let ok config = match Config.validate config with
    | Ok _ -> true | Error _ -> false
  in
  check bool "reference valid" true (ok Config.reference);
  check bool "fast valid" true (ok Config.fast_comparable);
  check bool "zero width" false (ok { Config.reference with width = 0 });
  check bool "rob < width" false
    (ok { Config.reference with rob_entries = 2 });
  check bool "ifq < width" false
    (ok { Config.reference with ifq_entries = 1 });
  check bool "optimized port limit" false
    (ok { Config.reference with mem_read_ports = 4 });
  check bool "improved has no port limit" true
    (ok
       { Config.reference with
         mem_read_ports = 4;
         organization = Config.Improved })

(* ------------------------------------------------------------------- *)
(* Minor-cycle schedules                                                 *)

let test_schedule_lengths () =
  List.iter
    (fun organization ->
      List.iter
        (fun width ->
          let schedule = Minor_cycle.build organization ~width in
          check int "length matches formula"
            (Config.minor_cycles_per_major organization ~width)
            schedule.Minor_cycle.length;
          check int "slot count" schedule.Minor_cycle.length
            (List.length schedule.Minor_cycle.slots))
        [ 1; 2; 4; 8 ])
    [ Config.Simple; Config.Improved; Config.Optimized ]

let count_units schedule predicate =
  List.fold_left
    (fun acc (slot : Minor_cycle.slot) ->
      acc + List.length (List.filter predicate slot.units))
    0 schedule.Minor_cycle.slots

let test_schedule_unit_counts () =
  let schedule = Minor_cycle.build Config.Optimized ~width:4 in
  let is_issue = function Minor_cycle.Issue _ -> true | _ -> false in
  let is_ca = function Minor_cycle.Cache_access _ -> true | _ -> false in
  let is_lsqr = function Minor_cycle.Lsq_refresh -> true | _ -> false in
  check int "four issues" 4 (count_units schedule is_issue);
  check int "optimized: no CA for the first slot" 3
    (count_units schedule is_ca);
  check int "one lsq_refresh" 1 (count_units schedule is_lsqr);
  let simple = Minor_cycle.build Config.Simple ~width:4 in
  check int "simple: CA for all slots" 4 (count_units simple is_ca)

let contains_substring haystack needle =
  let h = String.length haystack and n = String.length needle in
  let rec scan i = i + n <= h && (String.sub haystack i n = needle || scan (i + 1)) in
  n = 0 || scan 0

let test_schedule_render () =
  let rendered = Minor_cycle.render (Minor_cycle.build Config.Improved ~width:2) in
  check bool "mentions organization" true
    (contains_substring rendered "Improved");
  check bool "mentions lsq refresh lane" true
    (contains_substring rendered "Lsq_refresh")

(* ------------------------------------------------------------------- *)
(* Rename / FU / ROB / LSQ units                                          *)

let test_rename () =
  let rename = Rename.create ~registers:32 in
  check int "fresh" Entry.no_producer (Rename.producer rename 5);
  Rename.define rename ~reg:5 ~id:7;
  check int "defined" 7 (Rename.producer rename 5);
  Rename.define rename ~reg:5 ~id:9;
  Rename.clear rename ~reg:5 ~id:7;
  check int "stale clear ignored" 9 (Rename.producer rename 5);
  Rename.clear rename ~reg:5 ~id:9;
  check int "owner clear works" Entry.no_producer (Rename.producer rename 5);
  Rename.define rename ~reg:0 ~id:3;
  check int "r0 never renamed" Entry.no_producer (Rename.producer rename 0);
  Rename.define rename ~reg:1 ~id:1;
  Rename.define rename ~reg:2 ~id:2;
  Rename.reset rename;
  check int "reset" Entry.no_producer (Rename.producer rename 1);
  check int "reset 2" Entry.no_producer (Rename.producer rename 2)

let test_fu_alu_limit () =
  let fu = Fu.create Config.reference in
  Fu.begin_cycle fu;
  for _ = 1 to 4 do
    check bool "alu granted" true (Fu.try_allocate fu Fu.Alu ~now:0 >= 0)
  done;
  check bool "fifth alu denied" true (Fu.try_allocate fu Fu.Alu ~now:0 < 0);
  Fu.begin_cycle fu;
  check bool "next cycle granted" true
    (Fu.try_allocate fu Fu.Alu ~now:1 >= 0)

let test_fu_divider_not_pipelined () =
  let fu = Fu.create Config.reference in
  Fu.begin_cycle fu;
  check bool "div granted" true (Fu.try_allocate fu Fu.Div ~now:0 = 10);
  Fu.begin_cycle fu;
  check bool "div busy" true (Fu.try_allocate fu Fu.Div ~now:5 < 0);
  Fu.begin_cycle fu;
  check bool "div free after latency" true
    (Fu.try_allocate fu Fu.Div ~now:10 = 10);
  Fu.flush fu;
  Fu.begin_cycle fu;
  check bool "flush frees" true (Fu.try_allocate fu Fu.Div ~now:11 >= 0)

let test_fu_mult_pipelined () =
  let fu = Fu.create Config.reference in
  Fu.begin_cycle fu;
  check bool "mult 1" true (Fu.try_allocate fu Fu.Mult ~now:0 = 3);
  check bool "mult limit per cycle" true
    (Fu.try_allocate fu Fu.Mult ~now:0 < 0);
  Fu.begin_cycle fu;
  check bool "mult next cycle (pipelined)" true
    (Fu.try_allocate fu Fu.Mult ~now:1 = 3)

let test_rob_basics () =
  let rob = Rob.create ~entries:4 in
  let e0 = Rob.dispatch rob (alu ~pc:0 ~dest:1 ~src1:0 ~src2:0 ()) in
  let e1 = Rob.dispatch rob (alu ~pc:1 ~dest:2 ~src1:0 ~src2:0 ()) in
  check int "sequence ids" 0 e0.Entry.id;
  check int "sequence ids 2" 1 e1.Entry.id;
  check int "length" 2 (Rob.length rob);
  let e2 = Rob.dispatch rob (alu ~pc:2 ~dest:3 ~src1:0 ~src2:0 ()) in
  ignore e2;
  check int "squash younger than 0" 2 (Rob.squash_younger rob ~than_id:0);
  check int "one left" 1 (Rob.length rob);
  check int "head is e0" 0 (Rob.first rob).Entry.id

let test_lsq_classification () =
  let lsq = Lsq.create ~entries:8 in
  let rob = Rob.create ~entries:8 in
  (* Older store with unknown address (src1 pending) blocks the load. *)
  let st = Rob.dispatch rob (store ~pc:0 ~base:1 ~data:2 ~addr:0x100 ()) in
  st.Entry.src1_producer <- 99;
  let ld = Rob.dispatch rob (load ~pc:1 ~dest:3 ~base:4 ~addr:0x200 ()) in
  Lsq.dispatch lsq st;
  Lsq.dispatch lsq ld;
  Lsq.refresh lsq;
  check bool "blocked by unknown address" true
    (ld.Entry.load_readiness = Entry.Load_blocked);
  (* Address known, different word: the load needs a port. *)
  st.Entry.src1_producer <- Entry.no_producer;
  st.Entry.src2_producer <- 98;
  Lsq.refresh lsq;
  check bool "different address needs port" true
    (ld.Entry.load_readiness = Entry.Load_needs_port);
  (* Same word, data not ready yet: wait. *)
  let lsq2 = Lsq.create ~entries:8 in
  let rob2 = Rob.create ~entries:8 in
  let st2 = Rob.dispatch rob2 (store ~pc:0 ~base:1 ~data:2 ~addr:0x300 ()) in
  st2.Entry.src2_producer <- 97;
  let ld2 = Rob.dispatch rob2 (load ~pc:1 ~dest:3 ~base:4 ~addr:0x300 ()) in
  Lsq.dispatch lsq2 st2;
  Lsq.dispatch lsq2 ld2;
  Lsq.refresh lsq2;
  check bool "matching store, data pending: blocked" true
    (ld2.Entry.load_readiness = Entry.Load_blocked);
  (* Data ready: forward. *)
  st2.Entry.src2_producer <- Entry.no_producer;
  Lsq.refresh lsq2;
  check bool "forwarding" true
    (ld2.Entry.load_readiness = Entry.Load_forward)

let test_lsq_release_order () =
  let lsq = Lsq.create ~entries:4 in
  let rob = Rob.create ~entries:4 in
  let a = Rob.dispatch rob (load ~pc:0 ~dest:1 ~base:2 ~addr:0 ()) in
  let b = Rob.dispatch rob (load ~pc:1 ~dest:3 ~base:2 ~addr:4 ()) in
  Lsq.dispatch lsq a;
  Lsq.dispatch lsq b;
  Alcotest.check_raises "wrong order"
    (Failure "Lsq.release_head: committing #1 but queue head is #0")
    (fun () -> Lsq.release_head lsq b);
  (* A fresh queue releases in order without complaint. *)
  let lsq2 = Lsq.create ~entries:4 in
  Lsq.dispatch lsq2 a;
  Lsq.dispatch lsq2 b;
  Lsq.release_head lsq2 a;
  Lsq.release_head lsq2 b;
  check int "emptied" 0 (Lsq.length lsq2)

(* ------------------------------------------------------------------- *)
(* Engine micro-traces                                                   *)

let test_single_instruction_latency () =
  let stats = run (independent_alus 1) in
  check i64 "one committed" 1L (committed stats);
  check i64 "pipeline depth is six cycles" 6L (cycles stats)

let test_empty_trace () =
  let stats = run [||] in
  check i64 "nothing committed" 0L (committed stats);
  check i64 "no cycles" 0L (cycles stats)

let test_independent_ipc_near_width () =
  let stats = run (independent_alus 400) in
  check i64 "all committed" 400L (committed stats);
  check bool "IPC close to width" true (Stats.ipc stats > 3.0)

let test_dependent_chain_serializes () =
  let stats = run (dependent_alus 100) in
  check i64 "all committed" 100L (committed stats);
  let c = Int64.to_float (cycles stats) in
  check bool "about one cycle per instruction" true
    (c >= 100.0 && c <= 115.0)

let test_mult_latency_visible () =
  let chain_mult =
    Array.init 40 (fun i ->
        mult ~pc:i ~dest:(1 + (i mod 2)) ~src1:(1 + ((i + 1) mod 2)) ())
  in
  let stats = run chain_mult in
  let c = Int64.to_float (cycles stats) in
  check bool "three cycles per dependent multiply" true
    (c >= 3.0 *. 39.0 && c <= (3.0 *. 40.0) +. 12.0)

let test_divider_serializes_independent_divides () =
  let divs =
    Array.init 6 (fun i -> divide ~pc:i ~dest:(1 + i) ~src1:30 ())
  in
  let stats = run divs in
  let c = Int64.to_float (cycles stats) in
  (* One non-pipelined 10-cycle divider: at least 10 cycles each. *)
  check bool "divides serialized" true (c >= 50.0)

let test_load_use_latency () =
  (* load -> user chain vs alu -> user chain: the load adds a cycle. *)
  let with_load =
    [| load ~pc:0 ~dest:1 ~base:30 ~addr:0x40 ();
       alu ~pc:1 ~dest:2 ~src1:1 ~src2:0 () |]
  in
  let with_alu =
    [| alu ~pc:0 ~dest:1 ~src1:30 ~src2:0 ();
       alu ~pc:1 ~dest:2 ~src1:1 ~src2:0 () |]
  in
  let load_cycles = cycles (run with_load) in
  let alu_cycles = cycles (run with_alu) in
  check bool "load latency visible" true
    (Int64.compare load_cycles alu_cycles > 0)

let test_store_to_load_forwarding () =
  let records =
    [| store ~pc:0 ~base:29 ~data:30 ~addr:0x80 ();
       load ~pc:1 ~dest:1 ~base:29 ~addr:0x80 () |]
  in
  let stats = run records in
  check i64 "forwarded" 1L (Stats.get Stats.forwarded_loads stats);
  check i64 "both committed" 2L (committed stats)

let test_no_forwarding_across_different_words () =
  let records =
    [| store ~pc:0 ~base:29 ~data:30 ~addr:0x80 ();
       load ~pc:1 ~dest:1 ~base:29 ~addr:0x90 () |]
  in
  let stats = run records in
  check i64 "not forwarded" 0L (Stats.get Stats.forwarded_loads stats)

let test_read_port_limit () =
  (* Reference config has 2 read ports; 8 ready loads need 4+ cycles of
     issue and leave stall events behind. *)
  let loads =
    Array.init 8 (fun i -> load ~pc:i ~dest:(1 + i) ~base:29 ~addr:(64 * i) ())
  in
  let stats = run loads in
  check i64 "all loads committed" 8L (Stats.get Stats.committed_loads stats);
  check bool "read-port pressure recorded" true
    (Int64.compare (Stats.get Stats.read_port_stalls stats) 0L > 0)

let test_write_port_limit () =
  let stores =
    Array.init 6 (fun i ->
        store ~pc:i ~base:29 ~data:30 ~addr:(64 * i) ())
  in
  let stats = run stores in
  check i64 "all stores committed" 6L (Stats.get Stats.committed_stores stats);
  check bool "write-port pressure recorded" true
    (Int64.compare (Stats.get Stats.write_port_stalls stats) 0L > 0)

(* A mispredicted branch followed by its tagged wrong-path block, then
   the correct continuation. *)
let squash_trace ~block ~tail =
  Array.concat
    [ [| alu ~pc:0 ~dest:1 ~src1:29 ~src2:0 ();
         branch ~pc:1 ~taken:false ~target:50 () |];
      Array.init block (fun i ->
          alu ~wrong:true ~pc:(50 + i) ~dest:(2 + (i mod 8)) ~src1:29
            ~src2:0 ());
      Array.init tail (fun i ->
          alu ~pc:(2 + i) ~dest:(10 + (i mod 8)) ~src1:29 ~src2:0 ()) ]

let test_squash_semantics () =
  let stats = run (squash_trace ~block:6 ~tail:5) in
  check i64 "correct path committed" 7L (committed stats);
  check i64 "one squash" 1L (Stats.get Stats.mispredictions stats);
  let fetched_wrong = Stats.get Stats.fetched_wrong_path stats in
  let discarded = Stats.get Stats.discarded_wrong_path stats in
  check i64 "block accounted fully" 6L (Int64.add fetched_wrong discarded);
  check bool "wrong path entered the pipeline" true
    (Int64.compare fetched_wrong 0L > 0)

let test_squash_penalty_costs_cycles () =
  let clean =
    Array.concat
      [ [| alu ~pc:0 ~dest:1 ~src1:29 ~src2:0 ();
           branch ~pc:1 ~taken:false ~target:50 () |];
        Array.init 5 (fun i ->
            alu ~pc:(2 + i) ~dest:(10 + i) ~src1:29 ~src2:0 ()) ]
  in
  let with_squash = cycles (run (squash_trace ~block:6 ~tail:5)) in
  let without = cycles (run clean) in
  check bool "squash costs cycles" true
    (Int64.compare with_squash without > 0)

let test_tagged_never_commits () =
  let stats = run (squash_trace ~block:20 ~tail:3) in
  (* committed = 2 before the squash + 3 after. *)
  check i64 "only untagged commit" 5L (committed stats)

let test_misfetch_on_cold_btb () =
  (* A taken branch whose target the cold BTB cannot supply. The
     two-level predictor starts weakly-taken, so the direction is
     predicted taken and the missing target is a misfetch. *)
  let records =
    [| branch ~pc:0 ~taken:true ~target:10 ();
       alu ~pc:10 ~dest:1 ~src1:29 ~src2:0 () |]
  in
  let stats = run records in
  check bool "misfetch recorded" true
    (Int64.compare (Stats.get Stats.misfetches stats) 0L > 0);
  check bool "penalty cycles paid" true
    (Int64.compare (Stats.get Stats.fetch_penalty_cycles stats) 2L >= 0)

let test_oracle_has_no_misfetch () =
  let config =
    { Config.reference with
      predictor = Resim_bpred.Predictor.perfect_config }
  in
  let records =
    [| branch ~pc:0 ~taken:true ~target:10 ();
       alu ~pc:10 ~dest:1 ~src1:29 ~src2:0 () |]
  in
  let stats = run ~config records in
  check i64 "no misfetch with oracle" 0L (Stats.get Stats.misfetches stats)

let test_icache_misses_stall_fetch () =
  let config =
    { Config.reference with
      icache = Resim_cache.Cache.l1_32k_8way_64b }
  in
  (* 64-byte blocks hold 8 instructions; spread over many blocks. *)
  let records = independent_alus 200 in
  let stats = run ~config records in
  check bool "icache stalls occurred" true
    (Int64.compare (Stats.get Stats.icache_stall_cycles stats) 0L > 0);
  check i64 "still all committed" 200L (committed stats)

let test_dcache_misses_slow_loads () =
  let perfect = Config.reference in
  let cached =
    { Config.reference with dcache = Resim_cache.Cache.l1_32k_8way_64b }
  in
  (* Loads spread over 256 KB: mostly misses. *)
  let loads =
    Array.init 64 (fun i ->
        load ~pc:i ~dest:(1 + (i mod 8)) ~base:29 ~addr:(i * 4096) ())
  in
  check bool "cache misses cost cycles" true
    (Int64.compare (cycles (run ~config:cached loads))
       (cycles (run ~config:perfect loads))
    > 0)

let test_rob_full_pressure () =
  (* A divide at the head with a long tail of cheap work behind it must
     fill the 16-entry window. *)
  let records =
    Array.append
      [| divide ~pc:0 ~dest:1 ~src1:29 () |]
      (independent_alus ~start_pc:1 60)
  in
  let stats = run records in
  check bool "rob-full stalls recorded" true
    (Int64.compare (Stats.get Stats.rob_full_stalls stats) 0L > 0)

let test_determinism () =
  let records = squash_trace ~block:8 ~tail:40 in
  let a = run records in
  let b = run records in
  check i64 "same cycles" (cycles a) (cycles b);
  check i64 "same committed" (committed a) (committed b);
  check i64 "same issued" (Stats.get Stats.issued a)
    (Stats.get Stats.issued b)

let test_malformed_leading_tagged_records () =
  let records =
    Array.append
      (Array.init 3 (fun i ->
           alu ~wrong:true ~pc:i ~dest:1 ~src1:29 ~src2:0 ()))
      (independent_alus ~start_pc:3 4)
  in
  let stats = run records in
  check i64 "tagged prefix discarded" 3L
    (Stats.get Stats.discarded_wrong_path stats);
  check i64 "rest committed" 4L (committed stats)

let test_step_invariants () =
  let engine = Engine.create (squash_trace ~block:10 ~tail:200) in
  let config = Engine.config engine in
  while not (Engine.finished engine) do
    Engine.step engine;
    let stats = Engine.stats engine in
    let issued = Stats.get Stats.issued stats in
    let dispatched = Stats.get Stats.dispatched stats in
    let committed_now = Stats.get Stats.committed stats in
    if Int64.compare issued dispatched > 0 then
      Alcotest.fail "issued exceeded dispatched";
    if Int64.compare committed_now issued > 0 then
      Alcotest.fail "committed exceeded issued"
  done;
  ignore config

let test_lsq_full_stall () =
  (* More memory ops in flight than LSQ entries (8): dispatch must
     stall and record it, but everything still completes. *)
  let records =
    Array.init 24 (fun i ->
        load ~pc:i ~dest:(1 + (i mod 8)) ~base:29 ~addr:(64 * i) ())
  in
  let stats = run records in
  check i64 "all committed" 24L (committed stats);
  check bool "lsq-full stalls recorded" true
    (Int64.compare (Stats.get Stats.lsq_full_stalls stats) 0L > 0)

let test_taken_branch_ends_fetch_group () =
  (* Back-to-back taken branches: at most one enters per cycle, so n
     branches need at least n fetch cycles. *)
  let n = 32 in
  let records =
    Array.init n (fun i -> branch ~pc:(i * 2) ~taken:true ~target:(i * 2 + 2) ())
    |> Array.mapi (fun i r ->
           ignore i;
           r)
  in
  (* Make each branch's target the next record's pc so there is no
     misfetch noise once the BTB warms. *)
  let stats = run records in
  check bool "one taken branch per cycle" true
    (Int64.compare (cycles stats) (Int64.of_int n) >= 0)

let test_wrong_path_loads_pollute_dcache () =
  let config =
    { Config.reference with dcache = Resim_cache.Cache.l1_32k_8way_64b }
  in
  (* The branch is actually taken but the generator predicted
     not-taken, so the wrong path is the *sequential* one: the front end
     streams straight into the tagged block with no misfetch stall, and
     the wrong-path loads reach the D-cache before resolution. *)
  let base =
    [| alu ~pc:0 ~dest:1 ~src1:29 ~src2:0 ();
       branch ~pc:1 ~taken:true ~target:50 () |]
  in
  let tail =
    Array.init 4 (fun i -> alu ~pc:(50 + i) ~dest:(2 + i) ~src1:29 ~src2:0 ())
  in
  let without = Array.append base tail in
  let with_wrong_loads =
    Array.concat
      [ base;
        Array.init 4 (fun i ->
            load ~wrong:true ~pc:(2 + i) ~dest:(10 + i) ~base:29
              ~addr:(4096 * i) ());
        tail ]
  in
  let dcache_accesses records =
    let engine = Engine.create ~config records in
    ignore (Engine.run engine);
    (Resim_cache.Cache.stats (Engine.dcache engine)).accesses
  in
  check bool "wrong-path loads reach the D-cache" true
    (Int64.compare
       (dcache_accesses with_wrong_loads)
       (dcache_accesses without)
    > 0)

let test_btb_trains_at_commit () =
  (* Two early instances of the same branch misfetch (the BTB is only
     written at commit); a later instance hits. *)
  let br () = branch ~pc:0 ~taken:true ~target:5 () in
  let filler pc = alu ~pc ~dest:3 ~src1:29 ~src2:0 () in
  let records =
    Array.concat
      [ [| br (); filler 5; br (); filler 5 |];
        Array.init 20 (fun i -> filler (6 + i));
        [| br (); filler 5 |] ]
  in
  let stats = run records in
  check i64 "exactly the two cold instances misfetch" 2L
    (Stats.get Stats.misfetches stats)

let test_width_one_configuration () =
  let config =
    { Config.reference with
      width = 1;
      ifq_entries = 1;
      decouple_entries = 1;
      alu_count = 1;
      mem_read_ports = 1;
      mem_write_ports = 1;
      organization = Config.Improved }
  in
  let stats = Engine.run (Engine.create ~config (independent_alus 100)) in
  check i64 "all committed" 100L (committed stats);
  check bool "scalar bound" true (Stats.ipc stats <= 1.0)

let test_width_eight_configuration () =
  let config =
    { Config.reference with
      width = 8;
      ifq_entries = 8;
      decouple_entries = 8;
      rob_entries = 64;
      lsq_entries = 32;
      alu_count = 8;
      mem_read_ports = 4;
      mem_write_ports = 2;
      organization = Config.Optimized }
  in
  let stats = Engine.run (Engine.create ~config (independent_alus 800)) in
  check i64 "all committed" 800L (committed stats);
  check bool "wide machine exploits ILP" true (Stats.ipc stats > 4.0)

let test_trace_ends_in_wrong_path_block () =
  (* The mispredicted branch is the last correct-path record; its tagged
     block runs to the end of the trace. The engine must drain cleanly
     and commit exactly the untagged records. *)
  let records =
    Array.concat
      [ independent_alus 3;
        [| branch ~pc:3 ~taken:false ~target:60 () |];
        Array.init 10 (fun i ->
            alu ~wrong:true ~pc:(60 + i) ~dest:(1 + (i mod 8)) ~src1:29
              ~src2:0 ()) ]
  in
  let stats = run records in
  check i64 "four committed" 4L (committed stats);
  check i64 "one squash" 1L (Stats.get Stats.mispredictions stats);
  check i64 "block fully accounted" 10L
    (Int64.add
       (Stats.get Stats.fetched_wrong_path stats)
       (Stats.get Stats.discarded_wrong_path stats))

let test_commit_width_histogram_bounded () =
  let stats = run (independent_alus 200) in
  let histogram = Stats.commit_width_histogram stats in
  (* No cycle may commit more than the width. *)
  for w = Config.reference.width + 1 to Histogram.bins histogram - 1 do
    if Int64.compare (Histogram.count histogram w) 0L > 0 then
      Alcotest.failf "committed %d instructions in one cycle" w
  done;
  check bool "histogram populated" true
    (Int64.compare (Histogram.total histogram) 0L > 0)

(* ------------------------------------------------------------------- *)
(* Organization equivalence (the paper's §IV claim)                      *)

let organizations = [ Config.Simple; Config.Improved; Config.Optimized ]

let run_org records organization =
  let config = { Config.reference with organization } in
  Engine.run (Engine.create ~config records)

let assert_org_equivalence records =
  let results = List.map (run_org records) organizations in
  match results with
  | [ simple; improved; optimized ] ->
      check i64 "simple = improved major cycles" (cycles simple)
        (cycles improved);
      check i64 "improved = optimized major cycles" (cycles improved)
        (cycles optimized);
      check i64 "same committed" (committed simple) (committed optimized)
  | _ -> Alcotest.fail "expected three results"

let test_org_equivalence_micro () =
  assert_org_equivalence (independent_alus 200);
  assert_org_equivalence (dependent_alus 100);
  assert_org_equivalence (squash_trace ~block:10 ~tail:50);
  let memory_mix =
    Array.init 120 (fun i ->
        if i mod 3 = 0 then store ~pc:i ~base:29 ~data:30 ~addr:(i * 8) ()
        else if i mod 3 = 1 then
          load ~pc:i ~dest:(1 + (i mod 8)) ~base:29 ~addr:((i - 1) * 8) ()
        else alu ~pc:i ~dest:(9 + (i mod 8)) ~src1:(1 + (i mod 8)) ~src2:0 ())
  in
  assert_org_equivalence memory_mix

let test_org_equivalence_kernel () =
  let gzip = Resim_workloads.Workload.find "gzip" in
  let program = Resim_workloads.Workload.program_of gzip ~scale:2048 () in
  assert_org_equivalence (Resim_tracegen.Generator.records program)

let org_equivalence_property =
  QCheck.Test.make ~name:"organizations are timing-equivalent on synthetic \
                          traces"
    ~count:15
    QCheck.(int_bound 10_000)
    (fun seed ->
      let profile =
        Resim_tracegen.Synthetic.balanced ~name:"prop" ~instructions:1500
      in
      let records = Resim_tracegen.Synthetic.generate ~seed profile in
      let results = List.map (run_org records) organizations in
      match results with
      | [ a; b; c ] ->
          Int64.equal (cycles a) (cycles b)
          && Int64.equal (cycles b) (cycles c)
          && Int64.equal (committed a) (committed c)
      | _ -> false)

let org_equivalence_random_configs =
  (* The equivalence must hold for any valid structural configuration,
     not just the reference one. *)
  QCheck.Test.make
    ~name:"organizations are timing-equivalent across random configs"
    ~count:10
    QCheck.(
      quad (int_range 2 8) (int_range 1 4) (int_range 1 4) (int_bound 999))
    (fun (width, rob_scale, lsq_scale, seed) ->
      let config =
        { Config.reference with
          width;
          ifq_entries = width;
          decouple_entries = width;
          alu_count = width;
          rob_entries = width * (1 + rob_scale);
          lsq_entries = 2 * lsq_scale;
          mem_read_ports = max 1 ((width - 1) / 2);
          mem_write_ports = max 1 (width - 1 - ((width - 1) / 2)) }
      in
      (* Keep Optimized's port precondition satisfied. *)
      let config =
        if config.mem_read_ports + config.mem_write_ports > width - 1 then
          { config with mem_read_ports = 1; mem_write_ports = 1 }
        else config
      in
      match Config.validate { config with organization = Config.Optimized } with
      | Error _ -> QCheck.assume_fail ()
      | Ok _ ->
          let profile =
            Resim_tracegen.Synthetic.balanced ~name:"cfg" ~instructions:800
          in
          let records = Resim_tracegen.Synthetic.generate ~seed profile in
          let cycles_of organization =
            cycles
              (Engine.run
                 (Engine.create ~config:{ config with organization } records))
          in
          let simple = cycles_of Config.Simple in
          Int64.equal simple (cycles_of Config.Improved)
          && Int64.equal simple (cycles_of Config.Optimized))

let synthetic_commits_all_correct_path =
  QCheck.Test.make
    ~name:"engine commits exactly the correct-path records" ~count:20
    QCheck.(int_bound 10_000)
    (fun seed ->
      let profile =
        { (Resim_tracegen.Synthetic.balanced ~name:"prop"
             ~instructions:1200)
          with mispredict_rate = 0.08 }
      in
      let records = Resim_tracegen.Synthetic.generate ~seed profile in
      let untagged =
        Array.fold_left
          (fun acc (r : Record.t) -> if r.wrong_path then acc else acc + 1)
          0 records
      in
      let stats = run records in
      Int64.equal (committed stats) (Int64.of_int untagged))

let ipc_bounded_by_width =
  QCheck.Test.make ~name:"IPC never exceeds the issue width" ~count:15
    QCheck.(int_bound 10_000)
    (fun seed ->
      let profile =
        Resim_tracegen.Synthetic.balanced ~name:"prop" ~instructions:2000
      in
      let records = Resim_tracegen.Synthetic.generate ~seed profile in
      let stats = run records in
      Stats.ipc stats <= float_of_int Config.reference.width)

let suite =
  [ ("core:ring",
     [ Alcotest.test_case "order" `Quick test_ring_order;
       Alcotest.test_case "full push" `Quick test_ring_full_push_fails;
       Alcotest.test_case "get/iter" `Quick test_ring_get_and_iter;
       Alcotest.test_case "drop_while_back" `Quick test_ring_drop_while_back;
       QCheck_alcotest.to_alcotest ring_matches_list_model ]);
    ("core:config",
     [ Alcotest.test_case "latency formulas" `Quick
         test_config_latency_formulas;
       Alcotest.test_case "validation" `Quick test_config_validation ]);
    ("core:minor-cycle",
     [ Alcotest.test_case "lengths" `Quick test_schedule_lengths;
       Alcotest.test_case "unit counts" `Quick test_schedule_unit_counts;
       Alcotest.test_case "render" `Quick test_schedule_render ]);
    ("core:structures",
     [ Alcotest.test_case "rename table" `Quick test_rename;
       Alcotest.test_case "alu limit" `Quick test_fu_alu_limit;
       Alcotest.test_case "divider busy" `Quick
         test_fu_divider_not_pipelined;
       Alcotest.test_case "multiplier pipelined" `Quick
         test_fu_mult_pipelined;
       Alcotest.test_case "rob" `Quick test_rob_basics;
       Alcotest.test_case "lsq classification" `Quick
         test_lsq_classification;
       Alcotest.test_case "lsq release order" `Quick test_lsq_release_order
     ]);
    ("core:engine",
     [ Alcotest.test_case "single instruction" `Quick
         test_single_instruction_latency;
       Alcotest.test_case "empty trace" `Quick test_empty_trace;
       Alcotest.test_case "independent IPC" `Quick
         test_independent_ipc_near_width;
       Alcotest.test_case "dependent chain" `Quick
         test_dependent_chain_serializes;
       Alcotest.test_case "multiply latency" `Quick
         test_mult_latency_visible;
       Alcotest.test_case "divider serialization" `Quick
         test_divider_serializes_independent_divides;
       Alcotest.test_case "load-use latency" `Quick test_load_use_latency;
       Alcotest.test_case "store-to-load forwarding" `Quick
         test_store_to_load_forwarding;
       Alcotest.test_case "no false forwarding" `Quick
         test_no_forwarding_across_different_words;
       Alcotest.test_case "read ports" `Quick test_read_port_limit;
       Alcotest.test_case "write ports" `Quick test_write_port_limit;
       Alcotest.test_case "squash semantics" `Quick test_squash_semantics;
       Alcotest.test_case "squash penalty" `Quick
         test_squash_penalty_costs_cycles;
       Alcotest.test_case "tagged never commits" `Quick
         test_tagged_never_commits;
       Alcotest.test_case "misfetch on cold BTB" `Quick
         test_misfetch_on_cold_btb;
       Alcotest.test_case "oracle has no misfetch" `Quick
         test_oracle_has_no_misfetch;
       Alcotest.test_case "icache stalls" `Quick
         test_icache_misses_stall_fetch;
       Alcotest.test_case "dcache slowdown" `Quick
         test_dcache_misses_slow_loads;
       Alcotest.test_case "rob pressure" `Quick test_rob_full_pressure;
       Alcotest.test_case "determinism" `Quick test_determinism;
       Alcotest.test_case "malformed tagged prefix" `Quick
         test_malformed_leading_tagged_records;
       Alcotest.test_case "step invariants" `Quick test_step_invariants;
       Alcotest.test_case "lsq-full stall" `Quick test_lsq_full_stall;
       Alcotest.test_case "taken-branch fetch bubble" `Quick
         test_taken_branch_ends_fetch_group;
       Alcotest.test_case "wrong-path cache pollution" `Quick
         test_wrong_path_loads_pollute_dcache;
       Alcotest.test_case "BTB trains at commit" `Quick
         test_btb_trains_at_commit;
       Alcotest.test_case "width-1 machine" `Quick
         test_width_one_configuration;
       Alcotest.test_case "width-8 machine" `Quick
         test_width_eight_configuration;
       Alcotest.test_case "trailing tagged block" `Quick
         test_trace_ends_in_wrong_path_block;
       Alcotest.test_case "commit width bounded" `Quick
         test_commit_width_histogram_bounded ]);
    ("core:equivalence",
     [ Alcotest.test_case "micro traces" `Quick test_org_equivalence_micro;
       Alcotest.test_case "gzip kernel" `Slow test_org_equivalence_kernel;
       QCheck_alcotest.to_alcotest org_equivalence_property;
       QCheck_alcotest.to_alcotest org_equivalence_random_configs;
       QCheck_alcotest.to_alcotest synthetic_commits_all_correct_path;
       QCheck_alcotest.to_alcotest ipc_bounded_by_width ]) ]
