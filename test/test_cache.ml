(* Tests for the hit/miss + latency cache model. *)

open Resim_cache

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let create = Cache.create ~timing:Cache.default_timing

let small_config =
  (* 4 sets x 2 ways x 64-byte blocks = 512 bytes. *)
  Cache.Set_associative
    { Cache.size_bytes = 512; associativity = 2; block_bytes = 64 }

let test_perfect_always_hits () =
  let c = create Cache.Perfect in
  for i = 0 to 99 do
    check int "hit latency" (Cache.default_timing).hit_latency
      (Cache.access c ~addr:(i * 8192) ~write:false)
  done;
  let stats = Cache.stats c in
  check bool "no misses" true (Int64.equal stats.misses 0L);
  check bool "all hits" true (Int64.equal stats.hits 100L)

let test_miss_then_hit () =
  let c = create small_config in
  let miss = Cache.access c ~addr:0x1000 ~write:false in
  let hit = Cache.access c ~addr:0x1004 ~write:false in
  check int "miss latency" (1 + 18) miss;
  check int "hit latency" 1 hit;
  let stats = Cache.stats c in
  check bool "one miss one hit" true
    (Int64.equal stats.misses 1L && Int64.equal stats.hits 1L)

let test_custom_timing () =
  let timing = { Cache.hit_latency = 2; miss_latency = 40 } in
  let c = Cache.create ~timing small_config in
  check int "custom miss" 42 (Cache.access c ~addr:0 ~write:false);
  check int "custom hit" 2 (Cache.access c ~addr:0 ~write:false)

let test_lru_eviction () =
  let c = create small_config in
  (* Three blocks mapping to the same set (set stride = 4 sets x 64 B =
     256 B). *)
  let a = 0x0 and b = 0x100 and d = 0x200 in
  ignore (Cache.access c ~addr:a ~write:false);
  ignore (Cache.access c ~addr:b ~write:false);
  ignore (Cache.access c ~addr:a ~write:false);  (* a becomes MRU *)
  ignore (Cache.access c ~addr:d ~write:false);  (* evicts b (LRU) *)
  check bool "a still cached" true (Cache.probe c ~addr:a);
  check bool "b evicted" false (Cache.probe c ~addr:b);
  check bool "d cached" true (Cache.probe c ~addr:d)

let test_probe_is_pure () =
  let c = create small_config in
  ignore (Cache.access c ~addr:0 ~write:false);
  let before = Cache.stats c in
  ignore (Cache.probe c ~addr:0);
  ignore (Cache.probe c ~addr:0x4000);
  let after = Cache.stats c in
  check bool "probe changes nothing" true (before = after)

let test_capacity_fits () =
  (* Sequentially touching exactly the capacity leaves everything
     resident: re-touching gives pure hits. *)
  let c = create Cache.l1_32k_8way_64b in
  for block = 0 to (32 * 1024 / 64) - 1 do
    ignore (Cache.access c ~addr:(block * 64) ~write:false)
  done;
  let cold = (Cache.stats c).misses in
  for block = 0 to (32 * 1024 / 64) - 1 do
    ignore (Cache.access c ~addr:(block * 64) ~write:false)
  done;
  check bool "fits capacity" true (Int64.equal (Cache.stats c).misses cold)

let test_thrash_misses () =
  (* A working set twice the capacity with sequential sweeps misses on
     every block revisit. *)
  let c = create Cache.l1_32k_8way_64b in
  for _ = 1 to 2 do
    for block = 0 to (64 * 1024 / 64) - 1 do
      ignore (Cache.access c ~addr:(block * 64) ~write:false)
    done
  done;
  let stats = Cache.stats c in
  check bool "thrashing" true
    (Int64.to_float stats.misses /. Int64.to_float stats.accesses > 0.99)

let test_validation () =
  Alcotest.check_raises "block size power of two"
    (Invalid_argument "Cache.create: block_bytes must be a power of two")
    (fun () ->
      ignore
        (create
           (Cache.Set_associative
              { Cache.size_bytes = 1024; associativity = 2; block_bytes = 48 })));
  Alcotest.check_raises "zero associativity"
    (Invalid_argument "Cache.create: associativity must be positive")
    (fun () ->
      ignore
        (create
           (Cache.Set_associative
              { Cache.size_bytes = 1024; associativity = 0; block_bytes = 64 })))

let test_write_accesses_counted () =
  let c = create small_config in
  ignore (Cache.access c ~addr:0 ~write:true);
  ignore (Cache.access c ~addr:0 ~write:true);
  let stats = Cache.stats c in
  check bool "writes counted" true (Int64.equal stats.accesses 2L);
  check bool "write allocates" true (Cache.probe c ~addr:0)

(* Reference model: a naive set-associative LRU cache built on lists. *)
module Reference = struct
  type t = {
    mutable sets : int list array;  (* MRU first *)
    assoc : int;
    block_bits : int;
  }

  let create ~sets ~assoc ~block_bits =
    { sets = Array.make sets []; assoc; block_bits }

  let access t addr =
    let block = addr lsr t.block_bits in
    let index = block mod Array.length t.sets in
    let set = t.sets.(index) in
    let hit = List.mem block set in
    let without = List.filter (fun b -> b <> block) set in
    let updated = block :: without in
    let updated =
      if List.length updated > t.assoc then
        List.filteri (fun i _ -> i < t.assoc) updated
      else updated
    in
    t.sets.(index) <- updated;
    hit
end

let matches_reference_model =
  QCheck.Test.make ~name:"cache agrees with a naive LRU reference model"
    ~count:30
    QCheck.(list_of_size (Gen.int_range 50 400) (int_bound 4095))
    (fun addresses ->
      let cache = create small_config in
      let reference = Reference.create ~sets:4 ~assoc:2 ~block_bits:6 in
      List.for_all
        (fun addr ->
          let hit_model =
            Cache.access cache ~addr ~write:false
            = (Cache.default_timing).hit_latency
          in
          let hit_reference = Reference.access reference addr in
          hit_model = hit_reference)
        addresses)

let suite =
  [ ("cache:behaviour",
     [ Alcotest.test_case "perfect hits" `Quick test_perfect_always_hits;
       Alcotest.test_case "miss then hit" `Quick test_miss_then_hit;
       Alcotest.test_case "custom timing" `Quick test_custom_timing;
       Alcotest.test_case "LRU eviction" `Quick test_lru_eviction;
       Alcotest.test_case "probe purity" `Quick test_probe_is_pure;
       Alcotest.test_case "capacity fits" `Quick test_capacity_fits;
       Alcotest.test_case "thrashing" `Quick test_thrash_misses;
       Alcotest.test_case "validation" `Quick test_validation;
       Alcotest.test_case "write accounting" `Quick
         test_write_accesses_counted ]);
    ("cache:properties",
     [ QCheck_alcotest.to_alcotest matches_reference_model ]) ]
