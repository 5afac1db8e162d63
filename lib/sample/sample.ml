open Resim_core

(* ------------------------------------------------------------------ *)
(* Sampling schedule.                                                  *)

type spec = { detail : int; warmup : int; seed : int }

let spec_to_string spec =
  if spec.seed = 0 then Printf.sprintf "%d:%d" spec.detail spec.warmup
  else Printf.sprintf "%d:%d:%d" spec.detail spec.warmup spec.seed

let field_int ~name raw =
  match int_of_string_opt raw with
  | Some value -> Ok value
  | None -> Error (Printf.sprintf "%s %S is not an integer" name raw)

let ( let* ) = Result.bind

let spec_of_string s =
  let* detail, warmup, seed =
    match String.split_on_char ':' s with
    | [ detail; warmup ] -> Ok (detail, warmup, "0")
    | [ detail; warmup; seed ] -> Ok (detail, warmup, seed)
    | _ ->
        Error
          (Printf.sprintf
             "%S: expected detail:warmup or detail:warmup:seed" s)
  in
  let* detail = field_int ~name:"detail" detail in
  let* warmup = field_int ~name:"warmup" warmup in
  let* seed = field_int ~name:"seed" seed in
  if detail < 1 then
    Error (Printf.sprintf "detail %d must be at least 1" detail)
  else if warmup < 0 then
    Error (Printf.sprintf "warmup %d must not be negative" warmup)
  else if seed < 0 then
    Error (Printf.sprintf "seed %d must not be negative" seed)
  else Ok { detail; warmup; seed }

(* Splitmix-style avalanche, the repository's deterministic hash idiom
   (see Fault_inject): the initial sampling offset must reproduce for a
   fixed seed, so no [Random] and no clock. *)
let hash seed salt =
  let h = (seed * 0x9E3779B1) lxor (salt * 0x85EBCA77) lxor 0x165667B1 in
  let h = (h lxor (h lsr 30)) * 0x45D9F3B3 in
  let h = (h lxor (h lsr 27)) * 0x27D4EB2F in
  (h lxor (h lsr 31)) land max_int

(* ------------------------------------------------------------------ *)
(* Per-interval accumulation and the confidence interval.              *)

type interval = {
  index : int;
  start_cursor : int;
  instructions : int;
  cycles : int64;
  interval_ipc : float;
}

type report = {
  spec : spec;
  initial_offset : int;
  intervals : interval list;
  discarded_partial : int;
  mean_ipc : float;
  ci95 : float;
  detailed_instructions : int;
  warmed_instructions : int;
}

(* Two-sided 95% Student-t critical values for 1..30 degrees of
   freedom; the normal value beyond. *)
let t_table =
  [| 12.706; 4.303; 3.182; 2.776; 2.571; 2.447; 2.365; 2.306; 2.262;
     2.228; 2.201; 2.179; 2.160; 2.145; 2.131; 2.120; 2.110; 2.101;
     2.093; 2.086; 2.080; 2.074; 2.069; 2.064; 2.060; 2.056; 2.052;
     2.048; 2.045; 2.042 |]

let t_critical ~df =
  if df < 1 then infinity
  else if df <= Array.length t_table then t_table.(df - 1)
  else 1.96

let mean_and_ci95 = function
  | [] -> (0.0, infinity)
  | [ only ] -> (only, infinity)
  | values ->
      let n = List.length values in
      let nf = float_of_int n in
      let mean = List.fold_left ( +. ) 0.0 values /. nf in
      let sum_sq =
        List.fold_left
          (fun acc v -> acc +. ((v -. mean) *. (v -. mean)))
          0.0 values
      in
      let stddev = sqrt (sum_sq /. float_of_int (n - 1)) in
      (mean, t_critical ~df:(n - 1) *. stddev /. sqrt nf)

(* ------------------------------------------------------------------ *)
(* JSON.                                                               *)

let report_to_json report =
  let open Json in
  to_string
    (Obj
       [ ( "spec",
           Obj
             [ ("detail", int report.spec.detail);
               ("warmup", int report.spec.warmup);
               ("seed", int report.spec.seed) ] );
         ("initial_offset", int report.initial_offset);
         ("intervals", int (List.length report.intervals));
         ("discarded_partial", int report.discarded_partial);
         ("mean_ipc", fixed 6 report.mean_ipc);
         ("ci95", fixed 6 report.ci95);
         ("detailed_instructions", int report.detailed_instructions);
         ("warmed_instructions", int report.warmed_instructions);
         ( "interval_ipc",
           List
             (List.map (fun i -> fixed 6 i.interval_ipc) report.intervals) )
       ])

(* ------------------------------------------------------------------ *)
(* The alternating driver.                                             *)

(* Commits discarded after each functional gap while the pipeline
   refills: measuring from an empty pipeline would bias every interval
   cold, so a few ROB-fulls of commits prime it first. *)
let priming_commits config = 4 * config.Config.rob_entries

(* The run loop handed to {!Resim_core.Resim.run} via its
   [?driver] parameter: alternate functional warm-up and detailed
   intervals until the trace drains, writing the accumulated {!report}
   through the ref (also on truncation — the intervals completed so
   far). [deadline] and [max_cycles] compose the sweep's budgets: the
   detailed intervals honour them and truncate with a resume
   checkpoint exactly like an unsampled bounded run. *)
let driver ?watchdog ?deadline ?max_cycles ~spec cell engine =
  let stats = Engine.stats engine in
  let committed () = Stats.get_int Stats.committed stats in
  let cycles () = Stats.get Stats.major_cycles stats in
  let priming = priming_commits (Engine.config engine) in
  let intervals = ref [] in
  let next_index = ref 0 in
  let discarded = ref 0 in
  let detailed_instructions = ref 0 in
  let warmed_instructions = ref 0 in
  let period = spec.detail + spec.warmup in
  let initial_offset = hash spec.seed 0 mod period in
  let publish () =
    let ordered = List.rev !intervals in
    (* Statistics run in CPI space: the intervals hold (nearly) equal
       instruction counts, so the mean of per-interval CPI is the
       aggregate-ratio estimator sum(cycles)/sum(instructions) — an
       arithmetic mean of per-interval IPC would overestimate the
       aggregate by about var/mean. The CPI mean and half-width convert
       back to IPC for reporting (delta method for the half-width). *)
    let mean_cpi, ci_cpi =
      mean_and_ci95
        (List.map
           (fun i ->
             Int64.to_float i.cycles /. float_of_int i.instructions)
           ordered)
    in
    let mean_ipc = if mean_cpi > 0.0 then 1.0 /. mean_cpi else 0.0 in
    let ci95 =
      if Float.is_finite ci_cpi && mean_cpi > 0.0 then
        ci_cpi /. (mean_cpi *. mean_cpi)
      else infinity
    in
    cell :=
      Some
        { spec;
          initial_offset;
          intervals = ordered;
          discarded_partial = !discarded;
          mean_ipc;
          ci95;
          detailed_instructions = !detailed_instructions;
          warmed_instructions = !warmed_instructions }
  in
  let finish (bounded : Engine.bounded) =
    publish ();
    bounded
  in
  let run_to_commits extra =
    Engine.run_bounded ?watchdog ?max_cycles ?deadline
      ~max_commits:(committed () + extra) engine
  in
  (* Measure one interval: prime, measure, then drain so the next gap
     starts from an empty pipeline. A [Drained] mid-interval means the
     trace ended; keep the partial measurement only when it covered at
     least half the target, otherwise its IPC is noise. *)
  let measure () =
    let primed = run_to_commits priming in
    match primed.Engine.stop with
    | Cycle_budget | Time_budget -> `Truncated primed
    | Drained -> `Done primed
    | Commit_target ->
        let start_cursor = Engine.cursor engine in
        let commits_before = committed () in
        let cycles_before = cycles () in
        let measured = run_to_commits spec.detail in
        let record ~partial =
          let instructions = committed () - commits_before in
          let interval_cycles = Int64.sub (cycles ()) cycles_before in
          if
            instructions > 0
            && Int64.compare interval_cycles 0L > 0
            && ((not partial) || instructions * 2 >= spec.detail)
          then begin
            detailed_instructions := !detailed_instructions + instructions;
            intervals :=
              { index = !next_index;
                start_cursor;
                instructions;
                cycles = interval_cycles;
                interval_ipc =
                  float_of_int instructions /. Int64.to_float interval_cycles }
              :: !intervals;
            incr next_index
          end
          else if partial then incr discarded
        in
        (match measured.Engine.stop with
        | Cycle_budget | Time_budget ->
            (* Truncated mid-measurement: the window is incomplete and
               its commits were detailed for nothing — drop it. *)
            incr discarded;
            `Truncated measured
        | Drained ->
            record ~partial:true;
            `Done measured
        | Commit_target ->
            record ~partial:false;
            Engine.drain engine;
            `Continue)
  in
  let gap extra =
    let warmed = Engine.functional_warmup engine ~max_instructions:extra in
    warmed_instructions := !warmed_instructions + warmed;
    warmed = extra
  in
  (* The initial offset randomises where the first unit lands in the
     trace; the instructions it skips still warm caches and predictor
     because the gap IS the warm-up. *)
  if not (gap initial_offset) then
    finish { Engine.final = stats; stop = Drained; resume = None }
  else begin
    let result = ref None in
    while Option.is_none !result do
      (match measure () with
      | `Truncated bounded | `Done bounded -> result := Some bounded
      | `Continue ->
          if not (gap spec.warmup) then
            result :=
              Some { Engine.final = stats; stop = Drained; resume = None })
    done;
    finish (Option.get !result)
  end

let run ?config ?watchdog ?deadline ?max_cycles ?instrument ~spec trace =
  let cell = ref None in
  let driver = driver ?watchdog ?deadline ?max_cycles ~spec cell in
  match Resim.run ?config ?instrument ~driver trace with
  | Error _ as error -> error
  | Ok robust -> (
      match !cell with
      | Some report -> Ok (robust, report)
      | None -> assert false (* the driver always publishes *))
