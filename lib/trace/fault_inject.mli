(** Deterministic trace corruption for robustness testing.

    Each corruption class mirrors one RSM-T trace-lint rule (DESIGN.md
    §9): applied to a clean trace it must surface as the matching
    structured diagnostic from the linter, the codec or the engine —
    never as an anonymous exception or a hang. All injection is seeded
    and wall-clock free, so a failure replays from (class, seed). *)

type t =
  | Bit_flip           (** flip one payload bit; outcome varies *)
  | Truncate_payload   (** RSM-T002: payload ends inside a record *)
  | Truncate_header    (** RSM-T001: stream cut inside the header *)
  | Bad_magic          (** RSM-T001 *)
  | Bad_version        (** RSM-T001 *)
  | Bad_format         (** RSM-T001: unknown format code *)
  | Count_overrun      (** RSM-T002: declared count past the payload *)
  | Bad_field          (** RSM-T003: invalid record type code *)
  | Trailing_garbage   (** RSM-T004 (warning) *)
  | Orphan_tag         (** RSM-T005: tagged block with no branch before *)
  | Tag_after_uncond   (** RSM-T006 (warning) *)
  | Runaway_tag        (** RSM-T007: tagged run past the bound *)
  | Bad_payload        (** RSM-T008: impossible field combination *)

val all : t list

val name : t -> string
(** Stable kebab-case name used by [resim faultgen --fault]. *)

val of_name : string -> t option

val expected_code : t -> string option
(** The RSM-T code the class must surface as; [None] for {!Bit_flip},
    whose outcome depends on which field the flipped bit lands in. *)

val severity : t -> [ `Error | `Warning | `Varies ]

val describe : t -> string

val default_max_run : int
(** Wrong-path run bound used by {!Runaway_tag} (and the matching
    [max_wrong_path_run] the linter must be given to see RSM-T007). *)

val apply : seed:int -> format:Codec.format -> t -> Record.t array -> string
(** Encode [records] with the corruption injected — record-level classes
    rewrite the array first, byte-level classes damage the encoding. *)
