module Config = Resim_core.Config
module Stats = Resim_core.Stats
module Engine = Resim_core.Engine

type measurement = {
  kernel : string;
  scale : int option;
  config_name : string;
  scheduler : string;
  instructions : int;
  record_count : int;
  cycles : int64;
  runs : int;
  ns_per_run : float;
  host_mips : float;
  stall_causes : (string * int64) list;
}

let configurations =
  [ ("reference", Config.reference);
    ("fast-comparable", Config.fast_comparable) ]

(* Host-MIPS anchors measured at the pre-event-engine seed (commit
   45c755d), whose only scheduler was the per-cycle ROB/LSQ scan, with
   this module's exact protocol (same grid, 1 warm-up + best-of-5
   wall-clock) on the same host class. They let every later
   BENCH_engine.json report the engine-core trajectory against the
   baseline this work started from — the in-binary scan oracle is not
   that baseline, because it shares the representation optimizations
   (int producer links, int stats counters, flat rings, unboxed heap
   keys) that the event-engine work introduced. Cycle counts at the
   seed match the current engines exactly, so the anchor divides out
   simulated work, leaving pure host-throughput change. *)
let seed_baseline =
  [ ("gzip", "reference", 0.9363);
    ("gzip", "fast-comparable", 0.9959);
    ("bzip2", "reference", 1.0225);
    ("bzip2", "fast-comparable", 1.1063);
    ("vortex", "reference", 1.0117);
    ("vortex", "fast-comparable", 1.0612);
    ("twolf", "reference", 0.9643);
    ("twolf", "fast-comparable", 1.0093) ]

(* Anchors were measured on the full grid's scales, so only full-grid
   measurements are comparable (quick mode shrinks the gzip trace,
   which inflates MIPS and would fabricate a speedup). *)
let seed_scale = function "gzip" -> Some 8192 | _ -> None

let seed_mips ~kernel ~scale ~config_name =
  if scale <> seed_scale kernel then None
  else
    List.find_map
      (fun (k, c, mips) ->
        if String.equal k kernel && String.equal c config_name then Some mips
        else None)
      seed_baseline

let schedulers = [ Config.Scan; Config.Event ]

let grid ~quick =
  if quick then [ ("gzip", Some 1024) ]
  else [ ("gzip", Some 8192); ("bzip2", None); ("vortex", None);
         ("twolf", None) ]

(* Best-of-n wall-clock timing after one warm-up run: the warm-up pays
   one-time costs (page faults, branch-predictor tables, GC ramp-up)
   and best-of-n suppresses host noise. *)
let time_best ~runs f =
  ignore (f ());
  let best = ref infinity in
  for _ = 1 to runs do
    let started = Unix.gettimeofday () in
    ignore (f ());
    let elapsed = Unix.gettimeofday () -. started in
    if elapsed < !best then best := elapsed
  done;
  !best

let measure ?(quick = false) () =
  (* Best-of-n keeps the minimum, so extra runs only sharpen the floor.
     The runs are interleaved across the grid, one round over every
     point at a time: a host-load burst lasting several seconds then
     costs each point one or two of its runs instead of all of them. *)
  let runs = if quick then 2 else 9 in
  let points =
    List.concat_map
      (fun (kernel_name, scale) ->
        let kernel = Resim_workloads.Workload.find kernel_name in
        let program =
          match scale with
          | Some scale ->
              Resim_workloads.Workload.program_of kernel ~scale ()
          | None -> Resim_workloads.Workload.program_of kernel ()
        in
        let generated = Resim_tracegen.Generator.run program in
        List.concat_map
          (fun (config_name, config) ->
            List.map
              (fun scheduler ->
                (kernel_name, scale, config_name,
                 { config with Config.scheduler }, generated))
              schedulers)
          configurations)
      (grid ~quick)
    |> Array.of_list
  in
  let run (_, _, _, config, generated) =
    Engine.simulate ~config generated.Resim_tracegen.Generator.records
  in
  let stats = Array.map run points in
  let best = Array.make (Array.length points) infinity in
  for _ = 1 to runs do
    Array.iteri
      (fun index point ->
        let started = Unix.gettimeofday () in
        stats.(index) <- run point;
        let elapsed = Unix.gettimeofday () -. started in
        if elapsed < best.(index) then best.(index) <- elapsed)
      points
  done;
  List.init (Array.length points) (fun index ->
      let kernel_name, scale, config_name, config, generated =
        points.(index)
      in
      let seconds = best.(index) and stats = stats.(index) in
      { kernel = kernel_name;
        scale;
        config_name;
        scheduler = Config.scheduler_name config.Config.scheduler;
        instructions = generated.correct_path;
        record_count = Array.length generated.records;
        cycles = Stats.get Stats.major_cycles stats;
        runs;
        ns_per_run = seconds *. 1e9;
        host_mips =
          (if seconds > 0.0 then
             float_of_int generated.correct_path /. seconds /. 1e6
           else 0.0);
        stall_causes = Stats.stall_causes stats })

(* ------------------------------------------------------------------ *)
(* Sampled simulation (DESIGN.md §13): the same engine-only protocol,
   comparing a full detailed run against the sampling driver on the
   identical pre-generated trace. [speedup] is the per-point full/
   sampled wall ratio; [covered] asserts the statistical contract —
   the full-run IPC falls inside the sampled 95% confidence
   interval. *)

type sampled_measurement = {
  s_kernel : string;
  s_scale : int option;
  s_config_name : string;
  spec : Resim_sample.Sample.spec;
  intervals : int;
  mean_ipc : float;
  ci95 : float;  (* infinity when under two intervals *)
  full_ipc : float;
  covered : bool;
  detailed_instructions : int;
  warmed_instructions : int;
  full_ns : float;
  sampled_ns : float;
  sample_speedup : float;
}

let sampled_spec ~quick =
  (* 5% detail. The quick trace is small, so a short period keeps
     enough intervals for a finite confidence interval. *)
  if quick then { Resim_sample.Sample.detail = 100; warmup = 1900; seed = 7 }
  else { Resim_sample.Sample.detail = 1000; warmup = 19000; seed = 7 }

let measure_sampled ?(quick = false) () =
  let runs = if quick then 2 else 9 in
  let spec = sampled_spec ~quick in
  let config = Config.reference in
  List.map
    (fun (kernel_name, scale) ->
      let kernel = Resim_workloads.Workload.find kernel_name in
      let program =
        match scale with
        | Some scale ->
            Resim_workloads.Workload.program_of kernel ~scale ()
        | None -> Resim_workloads.Workload.program_of kernel ()
      in
      let generated = Resim_tracegen.Generator.run program in
      let records = generated.records in
      let full_stats = ref (Stats.create ()) in
      let full_seconds =
        time_best ~runs (fun () ->
            full_stats := Engine.simulate ~config records)
      in
      let report = ref None in
      let sampled_seconds =
        time_best ~runs (fun () ->
            let cell = ref None in
            let engine = Engine.create ~config records in
            ignore
              (Resim_sample.Sample.driver ~spec cell engine
                : Engine.bounded);
            report := !cell)
      in
      let report =
        match !report with Some report -> report | None -> assert false
      in
      let full_ipc = Stats.ipc !full_stats in
      { s_kernel = kernel_name;
        s_scale = scale;
        s_config_name = "reference";
        spec;
        intervals = List.length report.Resim_sample.Sample.intervals;
        mean_ipc = report.Resim_sample.Sample.mean_ipc;
        ci95 = report.Resim_sample.Sample.ci95;
        full_ipc;
        covered = Resim_sample.Sample.covers report full_ipc;
        detailed_instructions =
          report.Resim_sample.Sample.detailed_instructions;
        warmed_instructions =
          report.Resim_sample.Sample.warmed_instructions;
        full_ns = full_seconds *. 1e9;
        sampled_ns = sampled_seconds *. 1e9;
        sample_speedup =
          (if sampled_seconds > 0.0 then full_seconds /. sampled_seconds
           else 0.0) })
    (grid ~quick)

let pp_sampled ppf sampled =
  Format.fprintf ppf "@[<v>%-8s %-14s %5s %18s %8s %10s %10s %8s@,"
    "kernel" "spec" "ivals" "IPC (sampled)" "full" "full ms" "sampl ms"
    "speedup";
  List.iter
    (fun s ->
      Format.fprintf ppf
        "%-8s %-14s %5d %9.4f +- %6.4f %8.4f %10.2f %10.2f %7.2fx%s@,"
        s.s_kernel
        (Resim_sample.Sample.spec_to_string s.spec)
        s.intervals s.mean_ipc s.ci95 s.full_ipc (s.full_ns /. 1e6)
        (s.sampled_ns /. 1e6) s.sample_speedup
        (if s.covered then "" else "  [CI MISS]"))
    sampled;
  Format.fprintf ppf "@]"

let find measurements ~kernel ~config_name ~scheduler =
  List.find_opt
    (fun m ->
      String.equal m.kernel kernel
      && String.equal m.config_name config_name
      && String.equal m.scheduler scheduler)
    measurements

let speedup measurements ~kernel ~config_name =
  match
    ( find measurements ~kernel ~config_name ~scheduler:"scan",
      find measurements ~kernel ~config_name ~scheduler:"event" )
  with
  | Some scan, Some event when scan.host_mips > 0.0 ->
      Some (event.host_mips /. scan.host_mips)
  | _ -> None

let speedup_vs_seed measurements ~kernel ~config_name =
  match find measurements ~kernel ~config_name ~scheduler:"event" with
  | Some event -> (
      match seed_mips ~kernel ~scale:event.scale ~config_name with
      | Some baseline when baseline > 0.0 ->
          Some (event.host_mips /. baseline)
      | Some _ | None -> None)
  | None -> None

let pp_table ppf measurements =
  Format.fprintf ppf "@[<v>%-8s %-16s %-6s %12s %12s %10s@," "kernel"
    "config" "sched" "cycles" "ns/run" "host MIPS";
  List.iter
    (fun m ->
      Format.fprintf ppf "%-8s %-16s %-6s %12Ld %12.0f %10.3f" m.kernel
        m.config_name m.scheduler m.cycles m.ns_per_run m.host_mips;
      if String.equal m.scheduler "event" then begin
        (match speedup measurements ~kernel:m.kernel
                 ~config_name:m.config_name
         with
        | Some ratio -> Format.fprintf ppf "   (%.2fx vs scan" ratio
        | None -> Format.fprintf ppf "   (");
        (match speedup_vs_seed measurements ~kernel:m.kernel
                 ~config_name:m.config_name
         with
        | Some ratio -> Format.fprintf ppf ", %.2fx vs seed)@," ratio
        | None -> Format.fprintf ppf ")@,")
      end
      else Format.fprintf ppf "@,")
    measurements;
  Format.fprintf ppf "@]"

(* Hand-rolled JSON: the repository deliberately has no JSON dependency.
   Free-form strings go through the shared escape helper so no kernel or
   configuration name can break the document. *)
let json_escape = Resim_core.Json.escape

let to_json ?sweep_outcomes ?sampled measurements =
  let buffer = Buffer.create 4096 in
  Buffer.add_string buffer "{\n";
  Buffer.add_string buffer "  \"benchmark\": \"resim-engine-host-throughput\",\n";
  Buffer.add_string buffer
    (Printf.sprintf "  \"version\": \"%s\",\n"
       (json_escape Resim_core.Resim.version));
  (match sweep_outcomes with
  | None ->
      (* Quick runs skip the sweep section; null keeps the key present
         so downstream readers need no schema branching. *)
      Buffer.add_string buffer "  \"sweep_outcomes\": null,\n"
  | Some (c : Resim_sweep.Sweep.counts) ->
      Buffer.add_string buffer
        (Printf.sprintf
           "  \"sweep_outcomes\": {\"ok\": %d, \"failed\": %d, \
            \"timed_out\": %d, \"truncated\": %d, \"retried\": %d},\n"
           c.ok c.failed c.timed_out c.truncated c.retried));
  Buffer.add_string buffer "  \"measurements\": [\n";
  List.iteri
    (fun index m ->
      let stalls =
        String.concat ", "
          (List.map
             (fun (name, value) -> Printf.sprintf "\"%s\": %Ld" name value)
             m.stall_causes)
      in
      Buffer.add_string buffer
        (Printf.sprintf
           "    {\"kernel\": \"%s\", \"scale\": %s, \"config\": \"%s\", \
            \"scheduler\": \"%s\", \"instructions\": %d, \"records\": %d, \
            \"cycles\": %Ld, \"runs\": %d, \"ns_per_run\": %.0f, \
            \"host_mips\": %.4f, \"stalls\": {%s}}%s\n"
           (json_escape m.kernel)
           (match m.scale with Some s -> string_of_int s | None -> "null")
           (json_escape m.config_name)
           (json_escape m.scheduler)
           m.instructions m.record_count m.cycles m.runs m.ns_per_run
           m.host_mips stalls
           (if index = List.length measurements - 1 then "" else ",")))
    measurements;
  Buffer.add_string buffer "  ],\n";
  Buffer.add_string buffer
    "  \"baseline\": {\"commit\": \"45c755d\", \"scheduler\": \"scan\", \
     \"note\": \"pre-event-engine seed, same protocol and host class\", \
     \"host_mips\": [\n";
  List.iteri
    (fun index (kernel, config_name, mips) ->
      Buffer.add_string buffer
        (Printf.sprintf
           "    {\"kernel\": \"%s\", \"config\": \"%s\", \
            \"host_mips\": %.4f}%s\n"
           (json_escape kernel) (json_escape config_name) mips
           (if index = List.length seed_baseline - 1 then "" else ",")))
    seed_baseline;
  Buffer.add_string buffer "  ]},\n";
  Buffer.add_string buffer "  \"speedups\": [\n";
  let points =
    List.filter_map
      (fun m ->
        if String.equal m.scheduler "event" then
          match speedup measurements ~kernel:m.kernel
                  ~config_name:m.config_name
          with
          | Some ratio -> Some (m.kernel, m.config_name, ratio)
          | None -> None
        else None)
      measurements
  in
  List.iteri
    (fun index (kernel, config_name, ratio) ->
      let vs_seed =
        match speedup_vs_seed measurements ~kernel ~config_name with
        | Some ratio -> Printf.sprintf ", \"event_over_seed\": %.4f" ratio
        | None -> ""
      in
      Buffer.add_string buffer
        (Printf.sprintf
           "    {\"kernel\": \"%s\", \"config\": \"%s\", \
            \"event_over_scan\": %.4f%s}%s\n"
           (json_escape kernel) (json_escape config_name) ratio vs_seed
           (if index = List.length points - 1 then "" else ",")))
    points;
  Buffer.add_string buffer "  ],\n";
  (match sampled with
  | None -> Buffer.add_string buffer "  \"sampled\": null\n"
  | Some sampled ->
      Buffer.add_string buffer "  \"sampled\": [\n";
      List.iteri
        (fun index s ->
          Buffer.add_string buffer
            (Printf.sprintf
               "    {\"kernel\": \"%s\", \"scale\": %s, \"config\": \
                \"%s\", \"spec\": \"%s\", \"intervals\": %d, \
                \"mean_ipc\": %.4f, \"ci95\": %s, \"full_ipc\": %.4f, \
                \"covered\": %b, \"detailed_instructions\": %d, \
                \"warmed_instructions\": %d, \"full_ns\": %.0f, \
                \"sampled_ns\": %.0f, \"speedup\": %.4f}%s\n"
               (json_escape s.s_kernel)
               (match s.s_scale with
               | Some scale -> string_of_int scale
               | None -> "null")
               (json_escape s.s_config_name)
               (json_escape (Resim_sample.Sample.spec_to_string s.spec))
               s.intervals s.mean_ipc
               (if Float.is_finite s.ci95 then
                  Printf.sprintf "%.4f" s.ci95
                else "null")
               s.full_ipc s.covered s.detailed_instructions
               s.warmed_instructions s.full_ns s.sampled_ns
               s.sample_speedup
               (if index = List.length sampled - 1 then "" else ",")))
        sampled;
      Buffer.add_string buffer "  ]\n");
  Buffer.add_string buffer "}\n";
  Buffer.contents buffer

let write_json ~path ?sweep_outcomes ?sampled measurements =
  let channel = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out channel)
    (fun () ->
      output_string channel
        (to_json ?sweep_outcomes ?sampled measurements))
