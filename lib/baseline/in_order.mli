(** In-order scalar pipeline model — the ProtoFlex-style 5-stage
    baseline.

    Consumes the same pre-decoded trace as ReSim but models a classic
    scalar in-order pipeline: CPI 1 plus stalls for load-use hazards,
    multi-cycle units, taken branches, mispredictions and cache misses.
    Used to quantify how much of ReSim's simulated IPC comes from
    out-of-order issue (an ablation the paper's related-work section
    implies when comparing against ProtoFlex's simple pipeline). *)

type config = {
  load_use_stall : int;       (** cycles between a load and its user *)
  mult_stall : int;
  div_stall : int;
  taken_branch_bubble : int;  (** fetch bubble on every taken branch *)
  mispredict_penalty : int;   (** extra cycles per wrong-path block *)
  miss_latency : int;         (** D-cache miss stall *)
  dcache : Resim_cache.Cache.config;
}

type result = {
  instructions : int64;   (** correct-path instructions timed *)
  cycles : int64;
  ipc : float;
}

val simulate : ?config:config -> Resim_trace.Record.t array -> result
(** Wrong-path records contribute the misprediction penalty but are not
    individually timed (an in-order machine squashes them in the front
    end). *)
