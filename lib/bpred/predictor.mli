(** The composed branch-predictor unit of Figure 1: a direction predictor,
    a Branch Target Buffer and a Return Address Stack.

    Used at fetch to steer the front end and trained at commit, as in the
    simulated microarchitecture. When the direction predictor is
    {!Direction.Perfect} the whole unit is an oracle — directions *and*
    targets are always right, matching the paper's “perfect BP”
    configuration (Table 1, right). *)

type config = {
  direction : Direction.config;
  btb : Btb.config;
  ras_depth : int;
}

val default_config : config
(** The paper's reference predictor: two-level 4/8/4096 direction
    predictor, 512-entry direct-mapped BTB, 16-entry RAS. *)

val perfect_config : config
(** Oracle predictor for the FAST comparison. *)

type t

(** What the front end decided for one control-flow instruction. *)
type prediction = {
  taken : bool;            (** predicted direction *)
  target : int option;     (** predicted target when [taken]; [None] means
                               no target available — a misfetch *)
  from_ras : bool;         (** target came from the RAS *)
}

val create : config -> t
val config : t -> config

val predict :
  t ->
  pc:int ->
  kind:Resim_isa.Opcode.branch_kind ->
  fallthrough:int ->
  actual_taken:bool ->
  actual_target:int ->
  prediction
(** Fetch-time prediction for the control instruction at [pc].
    [actual_taken]/[actual_target] feed only the perfect oracle. Calls
    push [fallthrough] on the RAS; returns pop it. Unconditional kinds
    always predict taken. *)

val update : t -> pc:int -> kind:Resim_isa.Opcode.branch_kind -> taken:bool ->
  target:int -> unit
(** Commit-time training: conditional directions train the direction
    predictor; taken control instructions install their target in the BTB
    (returns rely on the RAS instead). *)

val ras_snapshot : t -> Ras.t
val ras_restore : t -> Ras.t -> unit
(** Squash repair: restore the RAS to its state at the mispredicted
    branch. *)

(** {1 Accuracy accounting} *)

val record_resolution : t -> correct:bool -> unit
(** Called by the engine when a branch resolves, to feed accuracy
    statistics. *)
