(** Statistical trace synthesis.

    Generates a trace directly from a workload *profile* — instruction
    mix, dependency density, branch behaviour and memory locality —
    without running a program. No product path runs it: {!generate} is
    the source of the differential tests' random traces, and {!profile}
    is the type each kernel describes itself with ([Kernel_sig.S]). The
    profile parameters map one-to-one onto the characteristics that
    determine IPC in a trace-driven timing model.

    Determinism: generation is driven by a caller-supplied seed; the same
    profile and seed always produce the identical trace. *)

type profile = {
  name : string;
  instructions : int;       (** correct-path length *)
  loads : float;            (** fraction of instructions that are loads *)
  stores : float;           (** ... stores *)
  branches : float;         (** ... conditional branches *)
  calls : float;            (** ... call/return pairs (adds B records) *)
  mults : float;            (** ... multiplies *)
  divides : float;          (** ... divides *)
  dependency_density : float;
      (** probability that a source register was produced within the last
          [width] instructions — higher means less ILP *)
  mispredict_rate : float;  (** fraction of conditional branches followed
                                by a wrong-path block *)
  taken_rate : float;       (** fraction of conditional branches taken *)
  working_set_bytes : int;  (** memory footprint *)
  sequential_locality : float;
      (** probability a memory access strides from the previous one
          (rest are uniform over the working set) *)
  wrong_path_limit : int;
}

val balanced : name:string -> instructions:int -> profile
(** A neutral starting profile (20 % loads, 10 % stores, 15 % branches,
    modest dependency density). *)

val generate : ?seed:int -> profile -> Resim_trace.Record.t array
