(** Target FPGA devices.

    The paper implements ReSim on a Virtex-4 [xc4vlx40] and a Virtex-5
    [xc5vlx50t] with Xilinx ISE 9.1i, achieving minor-cycle frequencies of
    84 MHz and 105 MHz respectively. Capacities below are the public
    datasheet figures; they feed the design-fit check. *)

type family = Virtex4 | Virtex5

type t = {
  name : string;
  family : family;
  slices : int;           (** total slices *)
  luts : int;             (** total LUTs (4-input on V4, 6-input on V5) *)
  brams : int;            (** block RAMs *)
  minor_cycle_mhz : float (** achieved ReSim minor-cycle frequency *)
}

val virtex4_xc4vlx40 : t
val virtex5_xc5vlx50t : t

val virtex5_xc5vlx330t : t
(** A large Virtex-5 part (not in the paper) used by the multi-core
    example to explore the paper's “multiple ReSim instances per FPGA”
    future-work direction. *)

val all : t list
