(** Table 2 — architectural simulator performance survey.

    Published rows (PTLsim through A-Ports) are constants from the paper;
    the two ReSim rows are replaced by our measured Virtex-5 averages
    from Table 1, so the headline ≥5x claim over FAST and A-Ports is
    re-derived from our own simulation rather than restated. *)

type row = {
  simulator : string;
  isa : string;
  speed_mips : float;
  measured : bool;  (** true for rows this reproduction computed *)
}

val rows : unit -> row list
val print : Format.formatter -> unit
