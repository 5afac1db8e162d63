(* resim_bench — the layered benchmark for ReSim.

     resim_bench --workload W --seed N [--seconds S] [--trace 0|1]
                 [--json OUT]
     resim_bench --smoke --cli PATH --benchmark PATH
     resim_bench compare A.jsonl B.jsonl

   One run measures one workload (all of them without --workload) for
   --seconds, checks every output, prints each metric as
   `workload metric value unit (n=...)` and ends with one JSON line:
   {"correct", "attempted", "failed", "metrics"}. --trace 1 reports the
   per-layer metrics instead of the end-to-end ones. Run from the root
   of a built checkout (perfbench/run.sh builds it). *)

module Json = Resim_core.Json
open Workloads

(* --- the metric catalogue (mirrors BENCHMARK.json) ------------------ *)

let declared benchmark =
  let text =
    match read_file benchmark with
    | Some text -> text
    | None -> failwith (benchmark ^ ": cannot read")
  in
  let doc =
    match Json.parse text with
    | Ok doc -> doc
    | Error e -> failwith (benchmark ^ ": " ^ e)
  in
  let section key =
    match Json.member key doc with
    | Some (Json.List entries) ->
        List.map
          (fun entry ->
            let field k = Option.bind (Json.member k entry) Json.string_value in
            match (field "name", field "unit") with
            | Some name, Some unit ->
                ( name,
                  unit,
                  field "better",
                  Option.bind (Json.member "bound" entry) Json.number_value )
            | _ -> failwith (benchmark ^ ": malformed " ^ key ^ " entry"))
          entries
    | _ -> failwith (benchmark ^ ": no " ^ key ^ " list")
  in
  (section "end_to_end", section "per_layer")

(* The run's metrics must be exactly the declared ones, with the
   declared units. *)
let conforms ~declared metrics =
  let names = List.map (fun (n, u, _, _) -> (n, u)) declared in
  let got = List.map (fun m -> (m.name, m.unit)) metrics in
  List.sort compare names = List.sort compare got

(* --- stamp ----------------------------------------------------------- *)

let first_line file =
  match read_file file with
  | Some text -> (
      match String.split_on_char '\n' text with l :: _ -> Some (String.trim l) | [] -> None)
  | None -> None

(* The checkout's commit, read from .git without running git (a source
   tarball has none: "unknown"). *)
let commit () =
  match first_line ".git/HEAD" with
  | Some head when String.starts_with ~prefix:"ref: " head -> (
      let ref_name = String.sub head 5 (String.length head - 5) in
      match first_line (Filename.concat ".git" ref_name) with
      | Some hash -> hash
      | None -> (
          match read_file ".git/packed-refs" with
          | None -> "unknown"
          | Some packed ->
              List.find_map
                (fun line ->
                  match String.split_on_char ' ' line with
                  | [ hash; name ] when String.equal name ref_name -> Some hash
                  | _ -> None)
                (String.split_on_char '\n' packed)
              |> Option.value ~default:"unknown"))
  | Some hash -> hash
  | None -> "unknown"

let cpu_model () =
  match read_file "/proc/cpuinfo" with
  | None -> "unknown"
  | Some text ->
      List.find_map
        (fun line ->
          if String.starts_with ~prefix:"model name" line then
            match String.index_opt line ':' with
            | Some i -> Some (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
            | None -> None
          else None)
        (String.split_on_char '\n' text)
      |> Option.value ~default:"unknown"

(* --- output ---------------------------------------------------------- *)

let number v = Printf.sprintf "%.17g" v

let spread_json m =
  let samples = if Array.length m.samples = 0 then [| m.value |] else m.samples in
  let q1, q3 = Measure.quartiles samples in
  Printf.sprintf
    "{\"value\":%s,\"unit\":%s,\"n\":%d,\"median\":%s,\"q1\":%s,\"q3\":%s,\"mad\":%s}"
    (number m.value) (Json.quote m.unit) (Array.length samples)
    (number (Measure.median samples)) (number q1) (number q3)
    (number (Measure.mad samples))

let result_line ~correct ~attempted ~failed metrics =
  Printf.sprintf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}"
    correct attempted failed
    (String.concat ","
       (List.map
          (fun (key, m) ->
            Printf.sprintf "%s:{\"value\":%s,\"unit\":%s}" (Json.quote key)
              (number m.value) (Json.quote m.unit))
          metrics))

(* --- one workload ------------------------------------------------------ *)

type outcome = {
  workload : string;
  tally : tally;
  metrics : metric list;
  window : metric list;  (** the window's op statistics, for --json *)
}

let measure ctx ~traced workload =
  let tally = new_tally () in
  let e2e = Workloads.run ctx tally workload in
  let metrics =
    if traced then Layers.run ctx tally ~workload ~e2e
    else e2e.metrics
  in
  List.iter
    (fun m ->
      require tally (Float.is_finite m.value) "%s: %s is not a finite number"
        workload m.name)
    metrics;
  { workload; tally; metrics; window = window_metrics e2e }

(* The human-readable lines of one workload's result; failed checks
   go to stderr. *)
let report o =
  let t = o.tally in
  List.iter (fun p -> Printf.eprintf "perfbench: FAILED %s\n" p) (List.rev t.problems);
  List.map
    (fun m ->
      Printf.sprintf "%s %s %.6g %s (n=%d)" o.workload m.name m.value m.unit
        (max 1 (Array.length m.samples)))
    o.metrics
  @ [ Printf.sprintf "%s error_rate %.6g %% (n=%d)" o.workload
        (if t.attempted = 0 then 0.
         else 100. *. float_of_int t.failed /. float_of_int t.attempted)
        t.attempted ]

let append_json path ~ctx ~traced o =
  let oc = open_out_gen [ Open_wronly; Open_creat; Open_append ] 0o644 path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc
        "{\"stamp\":{\"commit\":%s,\"nproc\":%d,\"cpu\":%s,\"ocaml\":%s,\"seed\":%d,\"seconds\":%s,\"traced\":%b},\"workload\":%s,\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}%s}\n"
        (Json.quote (commit ()))
        (Domain.recommended_domain_count ())
        (Json.quote (cpu_model ())) (Json.quote Sys.ocaml_version) ctx.seed
        (number ctx.seconds) traced (Json.quote o.workload)
        (o.tally.failed = 0) o.tally.attempted o.tally.failed
        (String.concat ","
           (List.map
              (fun m -> Printf.sprintf "%s:%s" (Json.quote m.name) (spread_json m))
              o.metrics))
        (if traced then ""
         else
           Printf.sprintf ",\"window\":{%s}"
             (String.concat ","
                (List.map
                   (fun m -> Printf.sprintf "%s:%s" (Json.quote m.name) (spread_json m))
                   o.window))))

(* --- compare ----------------------------------------------------------- *)

(* Per (workload, metric), each run's value, in file order. *)
let load_runs path =
  let text =
    match read_file path with Some t -> t | None -> failwith (path ^ ": cannot read")
  in
  List.concat_map
    (fun line ->
      if String.trim line = "" then []
      else
        match Json.parse line with
        | Error e -> failwith (path ^ ": " ^ e)
        | Ok doc -> (
            let workload =
              Option.value ~default:"" (Option.bind (Json.member "workload" doc) Json.string_value)
            in
            match Json.member "metrics" doc with
            | Some (Json.Obj metrics) ->
                List.filter_map
                  (fun (name, v) ->
                    let num k = Option.bind (Json.member k v) Json.number_value in
                    match (num "value", num "q1", num "q3") with
                    | Some value, Some q1, Some q3 -> Some ((workload, name), (value, q1, q3))
                    | _ -> None)
                  metrics
            | _ -> []))
    (String.split_on_char '\n' text)

(* The choosing-metrics section 8 verdict for one workload x metric:
   with several runs a side, the spread is the parent's interquartile
   range across runs; with one run a side, within that run. *)
let verdict ~better ~bound a b =
  let values side = Array.of_list (List.map (fun (v, _, _) -> v) side) in
  let va = values a and vb = values b in
  let ma = Measure.median va and mb = Measure.median vb in
  let iqr =
    match a with
    | [ (_, q1, q3) ] -> q3 -. q1
    | _ ->
        let q1, q3 = Measure.quartiles va in
        q3 -. q1
  in
  let sign = if better = "lower" then 1. else -1. in
  (* positive: B is worse than A *)
  let change = sign *. (mb -. ma) /. ma in
  let b_better x y = sign *. (x -. y) < 0. in
  let pairs = min (Array.length va) (Array.length vb) in
  let wins = ref 0 in
  for i = 0 to pairs - 1 do
    if b_better vb.(i) va.(i) then incr wins
  done;
  let every_b_better =
    Array.for_all (fun x -> Array.for_all (fun y -> b_better x y) va) vb
  in
  let verdict =
    if iqr /. ma > bound && not every_b_better then "unresolved"
    else if
      change < 0.
      && float_of_int !wins >= 0.9 *. float_of_int pairs
      && Float.abs (mb -. ma) > iqr
    then "better"
    else if change > bound then "worse"
    else "flat"
  in
  (verdict, ma, mb, change)

let compare_files ~benchmark a b =
  let e2e, _ = declared benchmark in
  let runs_a = load_runs a and runs_b = load_runs b in
  let keys = List.sort_uniq compare (List.map fst runs_a) in
  let worse = ref 0 in
  Printf.printf "%-16s %-12s %-10s %14s %14s %9s %6s\n" "workload" "metric"
    "verdict" "A median" "B median" "change" "bound";
  List.iter
    (fun ((workload, name) as key) ->
      match List.find_opt (fun (n, _, _, _) -> String.equal n name) e2e with
      | Some (_, _, Some better, Some bound) ->
          let side runs = List.filter_map (fun (k, v) -> if k = key then Some v else None) runs in
          let sa = side runs_a and sb = side runs_b in
          if sb <> [] then begin
            let v, ma, mb, change = verdict ~better ~bound sa sb in
            if v = "worse" then incr worse;
            Printf.printf "%-16s %-12s %-10s %14.6g %14.6g %+8.2f%% %5.0f%%\n" workload name v
              ma mb (100. *. change) (100. *. bound)
          end
      | _ -> ())
    keys;
  if !worse > 0 then exit 1

(* --- main ---------------------------------------------------------------- *)

let usage =
  "resim_bench --workload W --seed N [--seconds S] [--trace 0|1] [--json OUT]\n\
   resim_bench --smoke [--cli PATH] [--benchmark PATH]\n\
   resim_bench compare A.jsonl B.jsonl [--benchmark PATH]"

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let golden_digests path =
  match Option.map Json.parse (read_file path) with
  | Some (Ok doc) -> (
      match Json.member "digests" doc with
      | Some (Json.Obj entries) ->
          List.filter_map
            (fun (k, v) -> Option.map (fun d -> (k, d)) (Json.string_value v))
            entries
      | _ -> [])
  | Some (Error _) | None -> []

(* A hung child or daemon must not outlive the run's budget. *)
let start_watchdog seconds =
  ignore
    (Thread.create
       (fun () ->
         Unix.sleepf seconds;
         prerr_endline "perfbench: watchdog expired; stopping";
         Measure.kill_all ();
         Unix._exit 3)
       ())

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let workload = ref None
  and seed = ref None
  and seconds = ref 10.
  and traced = ref false
  and json = ref None
  and smoke = ref false
  and cli = ref "_build/default/bin/resim_cli.exe"
  and benchmark = ref "BENCHMARK.json"
  and golden = ref "perfbench/golden.json"
  and work_root = ref "perfbench/_work"
  and positional = ref [] in
  let specs =
    [ ("--workload", Arg.String (fun w -> workload := Some w), "W workload to run (default: all)");
      ("--seed", Arg.Int (fun n -> seed := Some n), "N input seed");
      ("--seconds", Arg.Float (fun s -> seconds := s), "S measuring window (default 10)");
      ("--trace", Arg.Int (fun t -> traced := t <> 0), "0|1 report per-layer metrics");
      ("--json", Arg.String (fun p -> json := Some p), "OUT append the run with its spread");
      ("--smoke", Arg.Set smoke, " tiny inputs, two ops per workload, assert the output");
      ("--cli", Arg.Set_string cli, "PATH resim binary");
      ("--benchmark", Arg.Set_string benchmark, "PATH BENCHMARK.json");
      ("--golden", Arg.Set_string golden, "PATH golden digests");
      ("--work", Arg.Set_string work_root, "DIR scratch directory") ]
  in
  Arg.parse specs (fun a -> positional := a :: !positional) usage;
  match List.rev !positional with
  | [ "compare"; a; b ] -> (
      try compare_files ~benchmark:!benchmark a b
      with Failure why ->
        prerr_endline ("resim_bench: " ^ why);
        exit 2)
  | _ :: _ ->
      prerr_endline usage;
      exit 2
  | [] ->
      let seed =
        match (!seed, !smoke) with
        | Some s, _ -> s
        | None, true -> default_seed
        | None, false ->
            prerr_endline "resim_bench: --seed is required";
            exit 2
      in
      if not (Sys.file_exists !cli) then begin
        Printf.eprintf "resim_bench: %s not found (build the checkout first)\n" !cli;
        exit 2
      end;
      let e2e_declared, layer_declared =
        try declared !benchmark
        with Failure why ->
          prerr_endline ("resim_bench: " ^ why);
          exit 2
      in
      let workloads =
        match !workload with
        | None -> Workloads.names
        | Some w when List.mem w Workloads.names -> [ w ]
        | Some w ->
            Printf.eprintf "resim_bench: unknown workload %s (%s)\n" w
              (String.concat ", " Workloads.names);
            exit 2
      in
      start_watchdog (if !smoke then 600. else 175.);
      let work =
        Filename.concat !work_root (Printf.sprintf "run-%d" (Unix.getpid ()))
      in
      (try Sys.mkdir !work_root 0o755 with Sys_error _ -> ());
      Sys.mkdir work 0o755;
      at_exit (fun () ->
          Measure.kill_all ();
          remove_tree work);
      let ctx =
        { cli = !cli; work; seed; seconds = !seconds; smoke = !smoke;
          golden = (if !smoke then [] else golden_digests !golden) }
      in
      let traced = !traced && not !smoke in
      let outcomes =
        try List.map (measure ctx ~traced) workloads
        with Setup_failed why ->
          Printf.eprintf "resim_bench: set-up failed: %s\n" why;
          exit 1
      in
      if traced then
        Measure.Span.write
          (Filename.concat !work_root
             (Printf.sprintf "spans-%s-seed%d.jsonl"
                (String.concat "+" workloads) seed));
      let declared = if traced then layer_declared else e2e_declared in
      let lines =
        List.concat_map
          (fun o ->
            require o.tally (conforms ~declared o.metrics)
              "%s: metrics differ from %s" o.workload !benchmark;
            Option.iter (fun path -> append_json path ~ctx ~traced o) !json;
            report o)
          outcomes
      in
      let attempted = List.fold_left (fun acc o -> acc + o.tally.attempted) 0 outcomes
      and failed = List.fold_left (fun acc o -> acc + o.tally.failed) 0 outcomes in
      let keyed =
        List.concat_map
          (fun o ->
            List.map
              (fun m ->
                ((if List.length outcomes = 1 then m.name else o.workload ^ "/" ^ m.name), m))
              o.metrics)
          outcomes
      in
      let line =
        result_line ~correct:(failed = 0) ~attempted:(max 1 attempted) ~failed keyed
      in
      if not !smoke then begin
        List.iter print_endline lines;
        print_endline line
      end
      else begin
        (* The smoke assertions: every declared metric printed with its
           unit on every workload, a parseable result line, no error. *)
        let problems =
          (if failed > 0 then [ Printf.sprintf "%d check(s) failed" failed ] else [])
          @ (match Json.parse line with
            | Ok _ -> []
            | Error e -> [ "result line does not parse: " ^ e ])
          @ List.concat_map
              (fun o ->
                List.filter_map
                  (fun (name, unit, _, _) ->
                    let printed line =
                      match String.split_on_char ' ' line with
                      | [ w; n; _value; u; count ] ->
                          w = o.workload && n = name && u = unit
                          && String.starts_with ~prefix:"(n=" count
                      | _ -> false
                    in
                    if List.exists printed lines then None
                    else Some (Printf.sprintf "%s: %s (%s) not printed" o.workload name unit))
                  e2e_declared)
              outcomes
        in
        List.iter (fun p -> prerr_endline ("perfbench smoke: " ^ p)) problems;
        if problems <> [] then begin
          List.iter prerr_endline lines;
          exit 1
        end
      end
