(** Multi-core ReSim — the paper's future-work direction made concrete
    (§VI: “it is possible to fit multiple ReSim instances in a single
    FPGA and simulate multi-core systems”).

    A system is a set of per-core ReSim engines stepped in lockstep, as
    co-resident instances sharing one FPGA clock would run. Cores are
    independent (private traces, private caches) — the shared-memory
    interconnect is out of the paper's scope — so per-core results equal
    standalone runs, which an integration test asserts. The module also
    answers the sizing questions: does the system fit a device, and what
    aggregate simulation throughput does it reach? *)

type core_spec = {
  name : string;
  feed : Resim_core.Resim.trace;
      (** a materialized array, or a pull stream drawn through a
          [Source] window — so a core can run a trace larger than RAM
          (chunked file cursor, pipe, foreign-format adapter). A pull
          that raises {!Resim_trace.Fault.Trace_fault} (truncated or
          corrupt stream) stops that core without draining it. *)
  config : Resim_core.Config.t;
}

type t

val create : core_spec list -> t
(** Raises [Invalid_argument] on an empty list or when configurations
    mix internal organizations or widths (co-resident instances share
    the minor-cycle schedule). *)

val core_count : t -> int

val run : ?max_cycles:int64 -> t -> [ `Finished | `Truncated ]
(** Step until every core drains, or until [max_cycles] lockstep cycles
    have elapsed. [`Truncated] means at least one core did not drain:
    it still had work when the budget ran out, or its stream died with
    a {!Resim_trace.Fault.Trace_fault} (a truncated trace is truncated,
    never [`Finished]) — either way its statistics cover only the
    simulated prefix, and {!results} marks it as not drained. *)

type core_result = {
  core : string;
  stats : Resim_core.Stats.t;
  finished_at : int64;
      (** lockstep cycle the core drained (or its stream died) at; the
          current clock when the run was truncated before that *)
  drained : bool;
      (** false when the run stopped with work outstanding, or the
          core's stream faulted mid-run *)
  fault : Resim_trace.Fault.t option;
      (** the stream fault that stopped this core, when there was one *)
}

val results : t -> core_result list

val elapsed_cycles : t -> int64
(** Lockstep major cycles so far (= the slowest core's cycles when
    finished). *)

val aggregate_committed : t -> int64

val aggregate_mips : t -> device:Resim_fpga.Device.t -> float
(** Total simulated instructions per second across cores at the device's
    minor-cycle frequency: all cores advance one major cycle every
    [L] minor cycles. *)

val area : t -> Resim_fpga.Area.report
(** Cost of one core times the core count is an upper bound; this
    reports the per-core estimate — combine with {!fits}. *)

val fits : t -> Resim_fpga.Device.t -> bool
(** Do [core_count] instances fit the device, per the area model? *)

val pp : Format.formatter -> t -> unit
