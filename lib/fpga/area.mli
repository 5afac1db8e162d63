(** Parametric FPGA area model, calibrated against Table 4.

    The paper reports, for the reference 4-wide configuration, a total of
    12 273 slices / 17 175 4-input LUTs / 7 BRAMs with a per-structure
    percentage breakdown (Fetch 25 %, Dispatch 9 %, ..., caches excluded
    from the total). We turn that into a parametric model: each structure
    has a reference cost (its published share of the totals) and a scaling
    law in the processor parameters, so non-reference configurations can
    be sized and checked against a device. Caches cost about 1000 slices
    plus tag BRAMs, per §V. *)

(** Parameters that determine structure sizes. Mirrors the paper's
    reference configuration in {!reference_params}. *)
type params = {
  width : int;            (** issue width N *)
  ifq_entries : int;
  decouple_entries : int;
  rob_entries : int;
  lsq_entries : int;
  arch_regs : int;
  bht_entries : int;
  history_bits : int;
  pht_entries : int;
  btb_entries : int;
  ras_depth : int;
  with_icache : bool;
  with_dcache : bool;
}

val reference_params : params
(** 4-wide, IFQ 4, ROB 16, LSQ 8, the paper's predictor, caches present.
    As in Table 4, {!report}[.total] always excludes the caches. *)

type structure =
  | Fetch_stage      (** includes the IFQ *)
  | Dispatch_stage   (** includes the decouple buffer *)
  | Issue_stage
  | Lsq_stage        (** Lsq_refresh logic *)
  | Writeback_stage
  | Commit_stage
  | Rename_table
  | Reorder_buffer
  | Lsq_structure
  | Branch_predictor
  | Dcache
  | Icache

val structure_name : structure -> string

type cost = { slices : int; luts : int; brams : int }

type report = {
  per_structure : (structure * cost) list;
  total : cost;          (** excluding caches, as in Table 4 *)
  total_with_caches : cost;
}

val estimate : params -> report

val fits : report -> Device.t -> bool
(** Does the design (including caches) fit the device? *)

val utilisation : report -> Device.t -> float
(** Slice utilisation fraction, including caches. *)

val instances_fitting : report -> Device.t -> int
(** How many copies of the design the device holds — the multi-core
    future-work check. Cost figures are calibrated on Virtex-4 slices;
    on Virtex-5 parts (whose slices hold 4 six-input LUTs instead of 2
    four-input ones) the check uses LUT capacity with a 1.6x density
    factor for the wider LUTs. *)

val percentage : report -> structure -> float
(** Share of [total_with_caches] slices attributed to a structure, in
    percent — the quantity tabulated in Table 4. *)

val pp_report : Format.formatter -> report -> unit
