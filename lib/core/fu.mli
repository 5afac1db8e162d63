(** Functional-unit pool.

    The reference processor has four single-cycle ALUs, one 3-cycle
    multiplier and one 10-cycle divider. ALUs and the multiplier are
    pipelined (one new operation per unit per cycle); the divider is not
    — it stays busy for its full latency. Branches and address
    generation execute on ALUs.

    The representation is exposed for the engine's closure family
    (DESIGN.md §14), which inlines allocation in its issue loop.
    [div_busy_until.(i)] is the first cycle divider [i] is free again.
    Treat the type as private elsewhere. *)

type t = {
  config : Config.t;
  mutable alu_used : int;
  mutable mult_used : int;
  div_busy_until : int array;
  mutable alu_allocations : int;
}

type request = Alu | Mult | Div

val create : Config.t -> t

val begin_cycle : t -> unit
(** Reset per-cycle allocation counts; call once per major cycle. *)

val no_unit : int
(** Negative sentinel returned by {!try_allocate} when no unit is free. *)

val try_allocate : t -> request -> now:int -> int
(** The operation latency when a unit of the requested class accepted
    the operation this cycle, [no_unit] otherwise. Returns a bare [int]
    rather than an option: the issue loop calls this once per candidate
    per cycle and must not allocate. *)

val flush : t -> unit
(** Squash: abandon in-flight work (frees the divider). *)
