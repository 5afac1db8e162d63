(** Figures 2–4 — ReSim's internal pipeline organizations.

    Renders the minor-cycle schedules (4-wide, as in the paper's figures)
    and the latency formulas [2N+3] / [N+4] / [N+3] across widths. *)

val print_all : Format.formatter -> unit
