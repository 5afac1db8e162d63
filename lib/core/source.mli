(** Record sources for the engine.

    The engine walks its input monotonically (a cursor plus one-record
    lookahead for Tag-Bit detection), so besides whole in-memory arrays
    it can consume records *pulled on demand* from a live producer — the
    paper's future-work idea of feeding ReSim directly from a functional
    simulator, as in FAST. A pull source buffers a sliding window and
    reclaims records once the engine's cursor has passed them, keeping
    memory bounded for arbitrarily long co-simulations.

    The representation is exposed for the engine's closure family
    (DESIGN.md §14): its fetch loop inlines the [Whole] fast
    path (a bounds check plus an array read) and falls back to the
    ordinary calls for [Windowed] sources. Treat the type as private
    elsewhere. *)

type pull_state = {
  pull : unit -> Resim_trace.Record.t option;
  mutable window : Resim_trace.Record.t array;
  mutable base : int;  (* absolute index of [window.(0)] *)
  mutable length : int;  (* valid records in the window *)
  mutable exhausted : bool;
  mutable reclaim_below : int;
}

type t =
  | Whole of Resim_trace.Record.t array
  | Windowed of pull_state

val of_array : Resim_trace.Record.t array -> t

val of_pull : (unit -> Resim_trace.Record.t option) -> t
(** [of_pull next] produces records by calling [next] on demand; [None]
    ends the stream. *)

val at : t -> int -> Resim_trace.Record.t option
(** [at source index] is the record at absolute position [index], pulling
    from the producer as needed. [None] means the stream ended before
    [index]. Raises [Invalid_argument] if [index] was already reclaimed
    by {!release_below}. *)

val has : t -> int -> bool
(** [has source index] is [at source index <> None] without allocating
    the option — the engine's end-of-trace check runs every cycle. *)

val get : t -> int -> Resim_trace.Record.t
(** [at] without the option, for the fetch loop (one call per record);
    raises [Invalid_argument] when the index is reclaimed or past the
    end — guard with {!has}. *)

val release_below : t -> int -> unit
(** Allow the source to reclaim storage for records at positions strictly
    below [index]. No-op for array sources. *)

val buffered : t -> int
(** Records currently held in memory (diagnostics; the array source
    reports the full array length). *)
