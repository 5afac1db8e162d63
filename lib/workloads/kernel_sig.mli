(** Interface shared by the five SPECINT-like kernels. *)

module type S = sig
  val name : string
  val description : string

  val program : ?scale:int -> unit -> Resim_isa.Program.t
  (** [scale] controls the dynamic instruction count (roughly linearly);
      defaults give a few hundred thousand instructions. *)

  val evaluation_scale : int
  (** The scale the benchmark harness uses to regenerate the paper's
      tables: large enough for steady state and for the working set to
      pressure a 32 KB L1. *)
end
