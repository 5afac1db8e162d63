(** Observability sinks for the engine's pipeline events (DESIGN.md
    §11).

    A {!sink} consumes timestamped {!Resim_core.Engine.event}s.
    {!attach} installs a single engine observer that fans out to the
    attached sinks; with no sinks it installs nothing at all, so the
    zero-sink run keeps the engine's allocation-free hot path — the
    only cost left compiled in is the engine's per-site observer test.

    Two concrete sinks ship here: a compact JSONL pipetrace (one JSON
    object per event, machine-checkable with [Resim_check.Obs]) and a
    human waterfall renderer (the classic per-instruction Gantt view,
    like sim-outorder's ptrace). Sink output is a pure function of the
    event stream, which itself is deterministic and bit-identical
    between the default engine and the reference phases
    ({!Resim_core.Engine.use_reference}; asserted by the differential
    suite). *)

type sink

val make_sink :
  on_close:(unit -> unit) ->
  (cycle:int64 -> Resim_core.Engine.event -> unit) ->
  sink
(** [on_close] runs once from {!close} — flush buffers there. *)

val attach : Resim_core.Engine.t -> sink list -> unit
(** Install one engine observer fanning out to [sinks], in list order.
    An empty list installs no observer. The engine supports a single
    observer; attaching replaces any previous one. *)

val close : sink list -> unit

(** {1 Pipetrace: compact JSONL}

    One JSON object per line, one line per event. [c] is the major
    cycle the event fired in; [e] the event kind:

    {v
    {"c":3,"e":"F","pc":64}          fetch        (+ "wp":true on wrong path)
    {"c":4,"e":"D","id":7,"pc":64}   dispatch     (+ "wp":true on wrong path)
    {"c":5,"e":"I","id":7}           issue
    {"c":8,"e":"W","id":7}           writeback (result broadcast)
    {"c":9,"e":"C","id":7}           commit
    {"c":9,"e":"X","id":8}           squash
    {"c":9,"e":"FL"}                 front-end flush after a squash
    {"c":6,"e":"S","r":"rob-full"}   stall, with its taxonomy reason
    v}

    Stall reasons are the {!Resim_core.Engine.stall_reason_name}
    strings: ifq-empty, rob-full, lsq-full, fu-busy, rd-port, wr-port,
    icache, misfetch, mispredict. Cycles are non-decreasing down the
    stream. *)

val add_jsonl_event :
  Buffer.t -> cycle:int64 -> Resim_core.Engine.event -> unit
(** Append one pipetrace line (with trailing newline) to [buffer] —
    the single encoder of every JSONL pipetrace ([simulate
    --pipetrace] builds its file sink on it). *)

(** {1 Waterfall renderer}

    Accumulates per-instruction stage cycles for the first [window]
    dispatched instructions and renders the Gantt view on {!close}:

    {v
    id    pc      |0         1
    #0    0       |FDIWC
    #1    1       | FD.IWC
    v} *)

val waterfall : window:int -> out_channel -> sink
