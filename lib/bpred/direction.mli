(** Branch direction predictors.

    The paper's reference configuration is a two-level predictor with a
    4-entry Branch History Table, 8-bit history registers and a 4096-entry
    Pattern History Table of 2-bit counters ({!two_level_default}); a
    perfect predictor is used for the FAST comparison. Because ReSim's
    predictor generator is parametric, so is ours. *)

type config =
  | Perfect       (** always right — the oracle used in Table 1 (right) *)
  | Static_taken
  | Static_not_taken
  | Bimodal of { table_entries : int }
      (** per-PC 2-bit counters *)
  | Two_level of {
      bht_entries : int;    (** branch-history-table entries *)
      history_bits : int;   (** history-register length *)
      pht_entries : int;    (** pattern-history-table entries *)
    }
  | Gshare of { history_bits : int; pht_entries : int }

val two_level_default : config
(** BHT 4, history 8, PHT 4096 — the paper's Table 1 (left) predictor. *)

type t

val create : config -> t
val config : t -> config

val predict : t -> pc:int -> actual:bool -> bool
(** Predicted direction for the branch at instruction index [pc].
    [actual] is consulted only by [Perfect]. *)

val update : t -> pc:int -> taken:bool -> unit
(** Commit-time training. No-op for static and perfect predictors. *)
