(* Tests for the engine implementations (DESIGN.md §14): the closure
   family every engine runs must be bit-identical to the reference
   phases — same cycles, same full statistics dump, same observer event
   stream — on the kernel grid and on random traces over random
   structurally sound configurations, and through checkpoint resume;
   plus the [Resim_spec.Spec] modes the layered benchmark links. *)

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

let assert_identical ~name config records =
  let reference = run_engine ~reference:true config records in
  let closures = run_engine ~reference:false config records in
  check bool (name ^ ": the closure family ran") true (closures.variant <> None);
  check string
    (name ^ ": full stats dump")
    (stats_dump reference.stats) (stats_dump closures.stats);
  check string (name ^ ": event stream") reference.events closures.events;
  closures

(* ------------------------------------------------------------------- *)
(* Three-way kernel differential: five kernels x the three
   organizations x both schedulers, each point proving Scan-reference,
   Event-reference and the closure family agree on everything. *)

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
          let dumps =
            List.map
              (fun scheduler ->
                let config =
                  { Config.reference with Config.organization; scheduler }
                in
                let name =
                  Printf.sprintf "%s/%s/%s" kernel
                    (Config.organization_name organization)
                    (Config.scheduler_name scheduler)
                in
                stats_dump (assert_identical ~name config records).stats)
              [ Config.Scan; Config.Event ]
          in
          (* The third leg: the two schedulers agree with each other, so
             all three engines pin the same timing. *)
          match dumps with
          | [ scan; event ] ->
              check string
                (Printf.sprintf "%s/%s: scan vs event" kernel
                   (Config.organization_name organization))
                scan event
          | _ -> assert false)
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
   reference phases under both schedulers. *)
let test_always_fallback_is_identical () =
  let records = snd (List.hd (Lazy.force kernel_records)) in
  List.iter
    (fun scheduler ->
      let config = { off_grid with Config.scheduler } in
      ignore
        (assert_identical
           ~name:(Config.scheduler_name scheduler ^ ": off-grid")
           config records))
    [ Config.Scan; Config.Event ]

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
          match Resim.resume_trace ~config ~checkpoint records with
          | Error message -> Alcotest.fail message
          | Ok outcome ->
              check string "resumed run matches uninterrupted"
                (stats_dump (Engine.simulate ~config records))
                (stats_dump outcome.Resim.stats)))

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
      let records = Synthetic.generate ~seed profile in
      let reference = run_engine ~reference:true config records in
      let closures = run_engine ~reference:false config records in
      closures.variant <> None
      && String.equal (stats_dump reference.stats) (stats_dump closures.stats)
      && String.equal reference.events closures.events)

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
     [ Alcotest.test_case "kernels x organizations x schedulers" `Slow
         test_kernel_differential;
       QCheck_alcotest.to_alcotest closures_match_reference ]) ]
