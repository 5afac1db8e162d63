(* Tests for the engine implementations (DESIGN.md §14): the closure
   family every engine runs (event-driven) must be bit-identical to the
   reference phases (the paper's per-cycle scan) — same cycles, same
   full statistics dump, same observer event stream — on the kernel
   grid and on random traces over random structurally sound
   configurations, and through checkpoint resume; plus the
   [Resim_spec.Spec] modes the layered benchmark links. The one
   differential harness lives here; test_event.ml feeds it its
   kernel, corner-case and random-trace inputs. *)

open Resim_core
module Spec = Resim_spec.Spec
module Synthetic = Resim_tracegen.Synthetic

let check = Alcotest.check
let bool = Alcotest.bool
let string = Alcotest.string

let stats_dump stats = Format.asprintf "%a" Stats.pp stats

type run = { stats : Stats.t; events : string; variant : string option }

let run_engine ~reference config records =
  let engine = Engine.create ~config records in
  let buffer = Buffer.create 4096 in
  Test_golden.attach_signature engine buffer;
  if reference then Engine.use_reference engine;
  let stats = Engine.run engine in
  { stats; events = Buffer.contents buffer; variant = Engine.variant engine }

(* The differential harness: run the default engine and the reference
   phases on the same input and return the first disagreement — in
   engine identity, major cycles, the full stats dump or the observer
   event stream — or [None]. *)
let disagreement config records =
  let reference = run_engine ~reference:true config records in
  let engine = run_engine ~reference:false config records in
  let cycles run = Stats.get Stats.major_cycles run.stats in
  if engine.variant = None then Some "the closure family did not run"
  else if not (Int64.equal (cycles reference) (cycles engine)) then
    Some
      (Printf.sprintf "major cycles: reference %Ld, engine %Ld"
         (cycles reference) (cycles engine))
  else if
    not (String.equal (stats_dump reference.stats) (stats_dump engine.stats))
  then
    Some
      (Printf.sprintf "full stats dump:\nreference:\n%s\nengine:\n%s"
         (stats_dump reference.stats) (stats_dump engine.stats))
  else if not (String.equal reference.events engine.events) then begin
    (* The streams run to megabytes: report only where they part. *)
    let limit =
      min (String.length reference.events) (String.length engine.events)
    in
    let rec first i =
      if i < limit && reference.events.[i] = engine.events.[i] then
        first (i + 1)
      else i
    in
    Some (Printf.sprintf "event stream, from byte %d" (first 0))
  end
  else None

let identical config records = Option.is_none (disagreement config records)

let assert_identical ~name config records =
  Option.iter
    (fun what ->
      Alcotest.failf "%s: engine differs from the reference: %s" name what)
    (disagreement config records)

(* ------------------------------------------------------------------- *)
(* Kernel differential: five kernels x the three organizations. *)

let kernel_records =
  lazy
    (List.map
       (fun kernel ->
         let name = Resim_workloads.Workload.name_of kernel in
         let program = Resim_workloads.Workload.program_of kernel () in
         (name, Resim_tracegen.Generator.records program))
       Resim_workloads.Workload.all)

let test_kernel_differential () =
  List.iter
    (fun (kernel, records) ->
      List.iter
        (fun organization ->
          assert_identical
            ~name:
              (Printf.sprintf "%s/%s" kernel
                 (Config.organization_name organization))
            { Config.reference with Config.organization }
            records)
        [ Config.Simple; Config.Improved; Config.Optimized ])
    (Lazy.force kernel_records)

(* ------------------------------------------------------------------- *)
(* Engine identity and the Spec modes.                                  *)

let off_grid = { Config.reference with Config.rob_entries = 24 }

(* Auto selects the closure family for every configuration: the
   reference, an off-grid one and 200 generated ones. *)
let test_auto_selection () =
  let configs =
    Config.reference :: off_grid
    :: QCheck.Gen.generate ~rand:(Random.State.make [| 7 |]) ~n:200
         Test_check.sound_config
  in
  List.iter
    (fun config ->
      let engine = Engine.create ~config [||] in
      check bool
        (Format.asprintf "Auto installs on %a" Config.pp config)
        true
        (Spec.install ~mode:Spec.Auto engine);
      check bool
        (Format.asprintf "variant reported for %a" Config.pp config)
        true
        (Engine.variant engine <> None))
    configs;
  check (Alcotest.option string) "reference variant name"
    (Some "optimized-event-w4-rob16-lsq8-rp2wp1")
    (Engine.variant (Engine.create ~config:Config.reference [||]))

let test_install_modes () =
  let records = snd (List.hd (Lazy.force kernel_records)) in
  let engine = Engine.create ~config:off_grid records in
  check bool "a fresh engine runs the closure family" true
    (Engine.variant engine <> None);
  check bool "Auto keeps it" true (Spec.install ~mode:Spec.Auto engine);
  check bool "still the closure family" true (Engine.variant engine <> None);
  check bool "Never selects the reference phases" false
    (Spec.install ~mode:Spec.Never engine);
  check (Alcotest.option string) "no variant after Never" None
    (Engine.variant engine)

(* An off-grid configuration falls back to nothing: the closure family
   is built from it at create time and stays bit-identical to the
   reference phases. *)
let test_always_fallback_is_identical () =
  let records = snd (List.hd (Lazy.force kernel_records)) in
  assert_identical ~name:"off-grid" off_grid records

(* A budget-truncated run hands the resume a checkpoint it accepts, and
   the resumed statistics equal an uninterrupted run's — on a
   configuration no fixed grid ever covered, closure family throughout. *)
let test_checkpoint_resume () =
  let records = snd (List.hd (Lazy.force kernel_records)) in
  let config = off_grid in
  match Resim.run ~config ~max_cycles:1000L (Records records) with
  | Error _ -> Alcotest.fail "bounded run failed"
  | Ok robust -> (
      match robust.Resim.resume with
      | None -> Alcotest.fail "expected a resume checkpoint"
      | Some checkpoint -> (
          match Resim.run ~config ~resume:checkpoint (Records records) with
          | Error failure -> Alcotest.fail (Resim.failure_to_string failure)
          | Ok resumed ->
              check string "resumed run matches uninterrupted"
                (stats_dump (Engine.simulate ~config records))
                (stats_dump resumed.Resim.outcome.Resim.stats)))

(* ------------------------------------------------------------------- *)
(* Random traces over random structurally sound configurations.        *)

let closures_match_reference =
  QCheck.Test.make
    ~name:"closure family matches the reference on generated configs"
    ~count:80
    QCheck.(
      pair Test_check.arbitrary_sound_config
        (pair (int_bound 100_000) (int_range 150 400)))
    (fun (config, (seed, instructions)) ->
      let profile =
        { (Synthetic.balanced ~name:"spec-diff" ~instructions) with
          Synthetic.dependency_density = 0.5;
          mispredict_rate = 0.08 }
      in
      identical config (Synthetic.generate ~seed profile))

(* ------------------------------------------------------------------- *)

let suite =
  [ ("spec:policy",
     [ Alcotest.test_case "auto selection" `Quick test_auto_selection;
       Alcotest.test_case "install modes" `Quick test_install_modes;
       Alcotest.test_case "Always fallback is identical" `Quick
         test_always_fallback_is_identical;
       Alcotest.test_case
         "checkpoint resume of a truncated run on an off-grid config" `Quick
         test_checkpoint_resume ]);
    ("spec:differential",
     [ Alcotest.test_case "kernels x organizations" `Slow
         test_kernel_differential;
       QCheck_alcotest.to_alcotest closures_match_reference ]) ]
