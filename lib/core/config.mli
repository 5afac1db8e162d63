(** Simulated-processor configuration.

    Mirrors §V.C: the reference processor is 4-way superscalar with 16
    Reorder Buffer entries, 8 LSQ entries, four single-cycle ALUs, one
    3-cycle multiplier, one 10-cycle divider, misfetch and misspeculation
    penalties of 3 cycles, the 2-level/BTB-512/RAS-16 predictor, and
    either a perfect memory system or 32 KB L1 caches. *)

(** ReSim's internal pipeline organization (§IV). Determines only the
    number of minor cycles per major cycle — the simulated-processor
    semantics are identical across organizations. *)
type organization =
  | Simple     (** Fig. 2 — [2N + 3] minor cycles *)
  | Improved   (** Fig. 3 — [N + 4] minor cycles *)
  | Optimized  (** Fig. 4 — [N + 3]; needs at most [N - 1] memory ports *)

val organization_name : organization -> string

val is_optimized : organization -> bool
(** Allocation- and caml_equal-free test used on the engine's per-cycle
    paths (the Optimized organization changes issue-slot rules). *)

val minor_cycles_per_major : organization -> width:int -> int
(** The latency formulas above. *)

type t = {
  width : int;                 (** issue width N *)
  ifq_entries : int;
  decouple_entries : int;
  rob_entries : int;
  lsq_entries : int;
  alu_count : int;
  alu_latency : int;
  mult_count : int;
  mult_latency : int;
  div_count : int;
  div_latency : int;           (** divider is not pipelined *)
  mem_read_ports : int;        (** load issues per major cycle *)
  mem_write_ports : int;       (** store commits per major cycle *)
  misfetch_penalty : int;
  misspeculation_penalty : int;
  organization : organization;
  predictor : Resim_bpred.Predictor.config;
  icache : Resim_cache.Cache.config;
  dcache : Resim_cache.Cache.config;
  cache_timing : Resim_cache.Cache.timing;
  l2cache : Resim_cache.Cache.config option;
      (** optional unified L2 shared by the I- and D-paths (an extension
          beyond the paper; [None] reproduces the paper's flat L1s) *)
  l2_timing : Resim_cache.Cache.timing;
}

val reference : t
(** Table 1 (left): 4-wide, 2-level predictor, perfect memory,
    Optimized organization (L = 7). *)

val fast_comparable : t
(** Table 1 (right): 2-wide, perfect predictor, 32 KB 8-way 64 B L1
    caches, Improved organization (L = 6). *)

val validate : t -> (t, string) result
(** Structural checks; notably Optimized requires
    [mem_read_ports + mem_write_ports <= width - 1] (§IV.B: “up to N-1
    memory ports”), positive sizes, and width within the IFQ. *)

val minor_cycle_latency : t -> int
(** [minor_cycles_per_major t.organization ~width:t.width]. *)

val pp : Format.formatter -> t -> unit
