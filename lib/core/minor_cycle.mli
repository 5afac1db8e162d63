(** Minor-cycle schedules — ReSim's internal pipeline (§IV, Figs. 2–4).

    A major cycle (one simulated processor cycle) is divided into minor
    cycles; each simulated stage processes one instruction per minor
    cycle (the serial execution model). The schedule records which unit
    occupies which minor-cycle slot for each of the three organizations,
    and its [length] realises the paper's latency formulas:

    - Simple:    [2N + 3] — Writeback and Lsq_refresh precede Issue;
      every Issue is split into Issue + Cache Access.
    - Improved:  [N + 4]  — Issue precedes Writeback (early broadcast /
      pipelined control); cache access precedes writeback; the last minor
      cycle performs the bookkeeping visible to the next Lsq_refresh.
    - Optimized: [N + 3]  — Lsq_refresh runs in parallel with the first
      Issue slot, which therefore may not issue a load (valid when the
      processor has at most N-1 memory ports).

    The engine charges [length] minor cycles per simulated cycle; the
    rendered schedules reproduce Figures 2, 3 and 4. *)

type unit_ =
  | Fetch of int          (** slot number, 1-based *)
  | Decouple of int
  | Dispatch of int
  | Lsq_refresh
  | Issue of int
  | Cache_access of int   (** D-cache access for issue slot [i] *)
  | Writeback of int
  | Commit of int
  | Bookkeeping

type slot = { minor : int; units : unit_ list }
(** Units active in one minor cycle (distinct pipeline lanes). *)

type t = {
  organization : Config.organization;
  width : int;
  length : int;          (** minor cycles per major cycle *)
  slots : slot list;
}

val build : Config.organization -> width:int -> t
(** Raises [Invalid_argument] when [width <= 0]. The resulting [length]
    always equals {!Config.minor_cycles_per_major}. *)

val render : t -> string
(** ASCII lane diagram in the style of the paper's figures. *)
