(** Sampled simulation with functional warm-up (DESIGN.md §13).

    SMARTS-style systematic sampling: the run alternates short detailed
    intervals — full timing through {!Resim_core.Engine.run_bounded} —
    with long functional gaps that advance the trace cursor, cache
    hierarchies and branch predictor state through
    {!Resim_core.Engine.functional_warmup} at a fraction of the cost.
    Per-interval IPC is accumulated and reported as a mean with a 95%
    confidence interval (Student-t below 30 intervals); the full-run
    IPC is expected to fall within that interval, which the
    differential suite asserts across the kernel grid.

    Everything is deterministic for a fixed spec: the initial sampling
    offset comes from a splitmix-style hash of the seed, never from a
    clock or [Random]. *)

(** A sampling schedule, written [detail:warmup[:seed]] on the command
    line — e.g. [1000:19000] measures 1000 committed instructions out
    of every 20000. *)
type spec = {
  detail : int;  (** committed instructions measured per interval, >= 1 *)
  warmup : int;
      (** instructions functionally warmed between intervals, >= 0 *)
  seed : int;  (** offset-randomisation seed, >= 0 (default 0) *)
}

val spec_of_string : string -> (spec, string) result
(** Parse [detail:warmup[:seed]]. Errors name the offending field. *)

val spec_to_string : spec -> string
(** Round-trips through {!spec_of_string}. *)

(** One measured interval. The priming window (a few ROB-fulls of
    commits after each warm-up gap, excluded from measurement while the
    pipeline refills) precedes [instructions]. *)
type interval = {
  index : int;
  start_cursor : int;  (** trace cursor when measurement began *)
  instructions : int;  (** committed in the measured window *)
  cycles : int64;  (** detailed major cycles in the measured window *)
  interval_ipc : float;
}

type report = {
  spec : spec;
  initial_offset : int;
      (** instructions functionally skipped before the first unit,
          [hash seed mod (detail + warmup)] *)
  intervals : interval list;  (** in trace order *)
  discarded_partial : int;
      (** trailing intervals dropped for ending before half the
          [detail] target *)
  mean_ipc : float;  (** unweighted mean of interval IPCs; the estimate *)
  ci95 : float;
      (** 95% confidence half-width; [infinity] below two intervals *)
  detailed_instructions : int;  (** total committed in measured windows *)
  warmed_instructions : int;  (** total functionally warmed *)
}

val report_to_json : report -> string
(** Stable JSON object: the spec, interval count and per-interval IPCs,
    mean, [ci95] (null when not finite), and instruction totals. A
    sampled run's [--metrics] document appends it to the statistics as
    a ["sample"] member ({!Resim_core.Json.append_members}). *)

val run :
  ?config:Resim_core.Config.t ->
  ?watchdog:int ->
  ?deadline:(unit -> bool) ->
  ?max_cycles:int64 ->
  ?instrument:(Resim_core.Engine.t -> unit) ->
  spec:spec ->
  Resim_core.Resim.trace ->
  (Resim_core.Resim.robust * report, Resim_core.Resim.failure) result
(** {!Resim_core.Resim.run} under the sampling driver. The driver
    only walks the trace forward (warm-up advances the cursor, detailed
    intervals fetch), so a pulled stream samples exactly like the same
    records in an array.
    The outcome's statistics cover only the detailed portions (plus
    drain and priming cycles); [report] carries the sampled IPC
    estimate. *)
