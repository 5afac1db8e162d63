(** Aggregate statistics over a trace. *)

type t = {
  total : int;
  correct_path : int;
  wrong_path : int;          (** tagged records *)
  branches : int;
  cond_branches : int;
  taken_branches : int;
  loads : int;
  stores : int;
  mults : int;
  divides : int;
}

type counter
(** Running counts for a summary built one record at a time — how
    streaming consumers (pull-based engines, linters) summarize a trace
    without materialising it. Counting allocates nothing. *)

val counter : unit -> counter
(** A fresh counter: no records seen. *)

val count : counter -> Record.t -> unit
(** Count the next record. *)

val result : counter -> t
(** The summary of the records counted so far. *)

val of_records : Record.t array -> t
(** Every record counted by one {!counter}. *)

val wrong_path_fraction : t -> float
(** Fraction of trace records that are tagged — the paper reports this
    misprediction overhead at about 10 %. *)

val pp : Format.formatter -> t -> unit
