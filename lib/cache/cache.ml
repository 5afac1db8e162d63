type geometry = {
  size_bytes : int;
  associativity : int;
  block_bytes : int;
}

type config = Perfect | Set_associative of geometry

type timing = { hit_latency : int; miss_latency : int }

let default_timing = { hit_latency = 1; miss_latency = 18 }

let l1_32k_8way_64b =
  Set_associative
    { size_bytes = 32 * 1024; associativity = 8; block_bytes = 64 }

type way = { mutable tag : int; mutable stamp : int }
(* tag = -1 marks an invalid way. *)

type state =
  | S_perfect
  | S_sets of { sets : way array array; block_bits : int; set_count : int }

type stats = {
  accesses : int64;
  hits : int64;
  misses : int64;
}

(* Counters are host ints (widened to int64 on read): [access] sits on
   the engine's per-fetch/per-load path, and boxed [Int64.add] would
   allocate twice per access. They live in their own record so the
   engine's closure family (DESIGN.md §14) can bump a perfect cache's
   counters inline without the tag/set state being exposed. *)
type counters = {
  mutable clock : int;
  mutable accesses : int;
  mutable hits : int;
  mutable misses : int;
}

type t = {
  config : config;
  timing : timing;
  state : state;
  counters : counters;
}

let log2_exact name n =
  let rec loop value bits =
    if value = 1 then bits
    else if value land 1 <> 0 || value <= 0 then
      invalid_arg (Printf.sprintf "Cache.create: %s must be a power of two" name)
    else loop (value lsr 1) (bits + 1)
  in
  loop n 0

let create ~timing config =
  let state =
    match config with
    | Perfect -> S_perfect
    | Set_associative { size_bytes; associativity; block_bytes } ->
        if associativity <= 0 then
          invalid_arg "Cache.create: associativity must be positive";
        let block_bits = log2_exact "block_bytes" block_bytes in
        let set_count = size_bytes / (associativity * block_bytes) in
        if set_count <= 0 then
          invalid_arg "Cache.create: capacity too small for the geometry";
        let sets =
          Array.init set_count (fun _ ->
              Array.init associativity (fun _ -> { tag = -1; stamp = 0 }))
        in
        S_sets { sets; block_bits; set_count }
  in
  { config; timing; state;
    counters = { clock = 0; accesses = 0; hits = 0; misses = 0 } }

let config t = t.config
let timing t = t.timing
let counters t = t.counters

let locate ~block_bits ~set_count addr =
  let block = addr lsr block_bits in
  (block mod set_count, block / set_count)

let find_way set tag =
  let rec scan i =
    if i >= Array.length set then None
    else if set.(i).tag = tag then Some i
    else scan (i + 1)
  in
  scan 0

let victim_way set =
  let best = ref 0 in
  for i = 1 to Array.length set - 1 do
    if set.(i).tag = -1 && set.(!best).tag <> -1 then best := i
    else if
      set.(i).tag <> -1 && set.(!best).tag <> -1
      && set.(i).stamp < set.(!best).stamp
    then best := i
  done;
  !best

let access t ~addr ~write =
  ignore write;
  let c = t.counters in
  c.accesses <- c.accesses + 1;
  c.clock <- c.clock + 1;
  match t.state with
  | S_perfect ->
      c.hits <- c.hits + 1;
      t.timing.hit_latency
  | S_sets { sets; block_bits; set_count } -> (
      let index, tag = locate ~block_bits ~set_count addr in
      let set = sets.(index) in
      match find_way set tag with
      | Some way ->
          set.(way).stamp <- c.clock;
          c.hits <- c.hits + 1;
          t.timing.hit_latency
      | None ->
          c.misses <- c.misses + 1;
          let way = victim_way set in
          set.(way).tag <- tag;
          set.(way).stamp <- c.clock;
          t.timing.hit_latency + t.timing.miss_latency)

let probe t ~addr =
  match t.state with
  | S_perfect -> true
  | S_sets { sets; block_bits; set_count } ->
      let index, tag = locate ~block_bits ~set_count addr in
      find_way sets.(index) tag <> None

let stats t =
  { accesses = Int64.of_int t.counters.accesses;
    hits = Int64.of_int t.counters.hits;
    misses = Int64.of_int t.counters.misses }
