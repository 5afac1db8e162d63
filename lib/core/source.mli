(** Record sources for the engine.

    The engine walks its input monotonically (a cursor plus one-record
    lookahead for Tag-Bit detection), so besides whole in-memory arrays
    it can consume records *pulled on demand* — a chunked trace file, a
    pipe, a foreign-format adapter, or a live functional simulator as
    in FAST. A pull source buffers a sliding window and reclaims
    records once the cursor has passed them, so memory stays bounded.

    Both are one window record. An array source is a full, exhausted
    window whose [reclaim_below] no cursor passes: never compacted, so
    the caller's array is never written. The representation is exposed
    for the engine's closure family (DESIGN.md §14), which reads a
    window hit inline and calls this module only to refill or, past
    [reclaim_below], to release. Treat it as private elsewhere. *)

type t = {
  pull : unit -> Resim_trace.Record.t option;
  mutable window : Resim_trace.Record.t array;
  mutable base : int;  (** absolute index of [window.(0)] *)
  mutable length : int;  (** valid records in the window *)
  mutable exhausted : bool;  (** [pull] returned [None] *)
  mutable reclaim_below : int;
      (** records below this index may be dropped; [max_int] for an
          array source *)
}

val of_array : Resim_trace.Record.t array -> t

val of_pull : (unit -> Resim_trace.Record.t option) -> t
(** [of_pull next] produces records by calling [next] on demand; [None]
    ends the stream. *)

val at : t -> int -> Resim_trace.Record.t option
(** [at source index] is the record at absolute position [index], pulling
    from the producer as needed. [None] means the stream ended before
    [index]. Raises [Invalid_argument] if [index] was already reclaimed
    by {!release_below} (or is negative). *)

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
