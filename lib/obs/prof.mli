(** Host profiling: section timers and allocation counters.

    Where the pipetrace explains simulated cycles, [Prof] explains host
    seconds — which engine phase and which pool activity the wall time
    and the allocation went to, so "make hot paths measurably faster"
    (ROADMAP) stops being guesswork.

    Sections are charged with wall-clock spans ([Unix.gettimeofday])
    and allocated words ([Gc.quick_stat], minor + major - promoted).
    Charging is mutex-guarded so sweep-pool worker domains can share
    one profile; allocation counts are per-domain at sampling time, so
    cross-domain totals are the sum of each domain's own allocation. *)

type t

val create : unit -> t

val time : t -> string -> (unit -> 'a) -> 'a
(** Run the thunk, charging its span to the named section (also on
    exception). Nested calls charge both sections the full span. *)

val instrument_engine : t -> Resim_core.Engine.t -> unit -> unit
(** Install a phase probe attributing each engine phase of each cycle
    to an [engine/<phase>] section; [engine/account] also absorbs the
    caller's between-cycle overhead (the run loop, watchdog and
    deadline polling). Returns a closer that charges the span still
    open when the run ends — call it once, after the run. Probing costs
    a clock and GC read per phase per cycle, so profile runs are
    markedly slower than bare runs; attribution ratios stay
    representative. *)

type section = {
  name : string;
  calls : int;
  seconds : float;
  allocated_words : float;
}

val sections : t -> section list
(** Descending by seconds. *)

val pp : Format.formatter -> t -> unit

val to_json : variant:string -> t -> string
(** The section table as a JSON object, led by
    [{"specialized": true, "variant": ...}]: the closure family's
    variant (DESIGN.md §14) the phase costs were measured against. *)
