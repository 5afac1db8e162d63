(** Simulation-throughput model.

    ReSim simulates one major cycle every [L] minor cycles, so with a
    minor-cycle frequency [f] it simulates [f / L] processor cycles per
    second, and the simulation speed in MIPS is that rate times the
    simulated processor's instructions per cycle. Table 1 counts
    committed (correct-path) instructions; Table 3 additionally counts
    fetched wrong-path instructions and derives the input trace bandwidth
    demand in MB/s. *)

val mips :
  mhz:float ->
  minor_cycles_per_major:int ->
  instructions:int64 ->
  major_cycles:int64 ->
  float
(** Simulation speed in million instructions per second for a run that
    simulated [instructions] over [major_cycles]. *)

val trace_mbytes_per_second : mips:float -> bits_per_instruction:float -> float
(** Input-trace bandwidth demand: [mips * bits/instr / 8] MB/s. *)

val speedup : ours:float -> theirs:float -> float
