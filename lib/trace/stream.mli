(** Pull-based record streams over encoded traces.

    The glue between the chunked codec cursors and [Source]-backed
    engines: one [next]-returns-[option] interface over single files
    (decoded through the O(chunk) streaming cursor), pipes and sharded
    shard sets, so a multi-GB trace never resides in memory. Malformed
    payloads surface as {!Fault.Trace_fault} with the RSM-T code and
    the absolute byte offset — the same typed surface robust runners
    already handle.

    A degraded stream ([~salvage]) collects faults instead of raising
    them: it runs {!Codec.Cursor.next_salvaged}, the codec's one
    salvage loop, so a chunked file, a shard set or a pipe yields the
    records and faults {!Codec.decode_degraded} returns for the same
    bytes, one record at a time. *)

type t

val next : t -> Record.t option
(** The next record, or [None] at end of stream. Raises
    {!Fault.Trace_fault} on a malformed payload. *)

val close : t -> unit
(** Release any channels the stream owns. Idempotent; end-of-stream
    does not require it (owned channels close as they drain), but
    callers abandoning a stream early must call it. *)

val of_cursor :
  ?source:string -> ?salvage:(Fault.t -> unit) -> Codec.Cursor.t -> t
(** Wrap a cursor; [source] labels faults. With [salvage], each damaged
    record is passed to it and decoding resumes at the next clean
    boundary. Does not own the channel a chunked cursor reads from. *)

val open_file : ?chunk:int -> string -> (t, Codec.error) result
(** Open an encoded trace file through the streaming cursor (holding
    O([chunk]) bytes). Host I/O failures are RSM-T009, header problems
    RSM-T001; the stream owns the channel. *)

val open_sharded :
  ?chunk:int ->
  ?salvage:(Fault.t -> unit) ->
  string list ->
  (t, Codec.error) result
(** Concatenate a shard set, opening shards one at a time. The first
    shard's failure is the returned [Error]; later shards fail
    mid-stream as {!Fault.Trace_fault}. *)

val open_path :
  ?chunk:int ->
  ?salvage:(Fault.t -> unit) ->
  string ->
  (t, Codec.error) result
(** {!open_sharded} when [path] names a shard set on disk (any shard
    of it, or the bare stem), {!open_file} otherwise; [salvage] as in
    {!of_cursor}. *)

val fold : ('a -> Record.t -> 'a) -> 'a -> t -> 'a
(** Drain the stream, closing it even on exceptions. *)
