(** Two-level cache hierarchy.

    ReSim's paper models flat L1s (hit/miss plus a fixed miss latency);
    this extension interposes an optional second level: an L1 miss costs
    the L1 hit latency plus a full access to the next level, whose own
    timing covers the memory round trip. The L2 is passed in as a
    component so one L2 instance can be *shared* between the instruction
    and data paths, as in a real unified L2. *)

type t

val create : timing:Cache.timing -> Cache.config -> l2:Cache.t option -> t
(** [create ~timing l1_config ~l2]: the L1 is built here; when [l2] is
    [Some _], the L1's configured miss latency is superseded by the L2
    access. *)

val access : t -> addr:int -> write:bool -> int
(** Total latency in major cycles. *)

val l1 : t -> Cache.t
