(** In-order scalar pipeline model — the ProtoFlex-style 5-stage
    baseline.

    Consumes the same pre-decoded trace as ReSim but models a classic
    scalar in-order pipeline on a perfect D-cache: CPI 1 plus stalls for
    load-use hazards (1 cycle), multiplies (2) and divides (9), a bubble
    per taken branch (1) and a penalty per wrong-path block (3).
    Used to quantify how much of ReSim's simulated IPC comes from
    out-of-order issue (an ablation the paper's related-work section
    implies when comparing against ProtoFlex's simple pipeline). *)

type result = {
  instructions : int64;   (** correct-path instructions timed *)
  cycles : int64;
  ipc : float;
}

val simulate : Resim_trace.Record.t array -> result
(** Wrong-path records contribute the misprediction penalty but are not
    individually timed (an in-order machine squashes them in the front
    end). *)
