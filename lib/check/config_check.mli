(** Static validation of a simulator configuration against the paper's
    architectural constraints (codes RSM-C001 … RSM-C021; catalog in
    DESIGN.md §9).

    Strictly stronger than {!Resim_core.Config.validate}, which encodes
    only the constraints the engine cannot run without: this layer also
    rejects window shapes the microarchitecture cannot mean (LSQ larger
    than the ROB), non-power-of-two cache and predictor geometries that
    the hardware generator could not index, and flags suspicious but
    runnable settings (zero misspeculation penalty with a real
    predictor) as warnings. *)

val validate : Resim_core.Config.t -> Diagnostic.t list
(** All findings, errors first. An empty list means the configuration is
    clean; {!Resim_core.Config.reference} and
    {!Resim_core.Config.fast_comparable} validate clean. *)

val error_summary : Resim_core.Config.t -> string option
(** [None] when there are no errors; otherwise a one-line summary
    naming every error code and subject, suitable for exceptions. *)
