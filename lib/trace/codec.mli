(** Binary trace codec.

    Two bit-packed encodings of {!Record.t} streams:

    - [Fixed] — fixed-width fields with absolute addresses and targets,
      our reconstruction of the paper's format. It lands in the published
      41–47 bits/instruction band on the SPEC-like workloads (Table 3).
    - [Compact] — delta/zig-zag encoded addresses, targets and PCs; an
      extension studied in the trace-bandwidth ablation.

    Every stream starts with a self-describing header (magic, version,
    format, record count), so a decoder needs no side information. A
    record count of [-1] marks a *streamed* trace (producer did not know
    the total — [tracegen --stream], pipes); readers consume records
    until the payload runs dry. *)

type format = Fixed | Compact

exception Corrupt of string
(** Raised by [read_file] on malformed input. *)

type error = {
  error_code : string;
      (** RSM-T001/T002/T003 — the trace-lint code; RSM-T009 for host
          I/O failures (missing/unreadable file) *)
  byte_offset : int;    (** absolute position in the stream, header included *)
  reason : string;
}
(** Structured decode failure: what went wrong, which rule it violates
    and where in the byte stream — the no-exceptions face of the codec
    used by the linter, the degraded decoder and robust runners. *)

val error_to_string : error -> string

val header_length : int
(** Bytes of self-describing header before the payload (magic, version,
    format, record count). *)

val encode : ?format:format -> Record.t array -> string
(** Serialise; default format [Fixed]. *)

val decode_result : string -> (Record.t array * format, error) result
(** Decode a whole in-memory stream without escaping exceptions: any
    malformed header, field code or truncation comes back as a
    structured {!error}. *)

val decode_degraded :
  string -> (Record.t array * format * Fault.t list, error) result
(** Salvage decode for corrupt streams: {!Cursor.next_salvaged} drained
    over an in-memory cursor. On an undecodable record the cursor skips
    to the next byte boundary that decodes cleanly (a resync)
    and the failure is recorded as a {!Fault.t}. Returns every
    structurally decodable record plus the fault list; [Error] only
    when the header itself is unusable. A non-empty fault list means
    downstream results must be treated as degraded. A chunked cursor
    salvages the same records and faults, one record at a time
    ({!Stream.open_path} with [~salvage]). *)

(** Streaming decode: one record at a time without materialising the
    whole array — the trace linter's view of a stream. *)
module Cursor : sig
  type t

  val of_string_result : string -> (t, error) result
  (** Parses the header; a malformed one is a structured error (code
      RSM-T001 and the byte offset of the offending header field). *)

  val of_channel_result :
    ?chunk:int -> in_channel -> (t, error) result
  (** Chunked streaming cursor over a channel: holds O([chunk] + one
      record) bytes regardless of stream length ([chunk] defaults to
      64 KiB), so traces larger than RAM decode in constant memory. Byte
      offsets in diagnostics remain absolute file offsets across
      refills. A channel that cannot be read (a directory, say) is
      RSM-T009: an [Error] at the header, {!Fault.Trace_fault} at a
      later refill. The channel must stay open for the cursor's
      lifetime and is not closed by the cursor. *)

  val format : t -> format

  val decoded : t -> int
  (** Records decoded so far — the offset of the next record. *)

  val streamed : t -> bool
  (** Whether the header carried the streamed count ([-1]): no
      declared count, records exist while payload bytes remain. *)

  val has_next : t -> bool
  (** Counted cursors: whether fewer records were decoded than the
      header declares. Streamed cursors: whether at least one whole
      payload byte remains (exact — end padding is under 8 bits and no
      record is shorter). *)

  val next_result : t -> (Record.t, error) result
  (** Decode the next record. A truncated record (or a call after the
      declared count) is RSM-T002, an undecodable field RSM-T003, both
      carrying the byte offset where decoding stopped. Nothing
      escapes. *)

  val byte_offset : t -> int
  (** Absolute stream offset (header included) of the byte holding the
      next unread bit — a file offset even on chunked cursors. *)

  val next_salvaged : t -> fault:(Fault.t -> unit) -> Record.t option
  (** The salvage loop, one record at a time: the next structurally
      decodable record, or [None] at the end of the stream (or once no
      boundary is left to resync to). An undecodable record is passed
      to [fault] — its RSM-T code, the record offset and ["byte B:
      reason"] — and the cursor resyncs past it. Never raises on
      malformed bytes. *)

  val bits_remaining : t -> int
  (** Bits buffered but not yet decoded: exact for in-memory cursors, a
      lower bound mid-stream for chunked ones. *)

  val trailing_bytes : t -> int
  (** Whole bytes left beyond the declared records (refills once, so it
      is meaningful on chunked cursors too) — the linter's trailing-data
      check. *)
end

(** Constant-memory streaming encode to a channel: the header goes out
    first with the streamed count ([-1]), then complete bytes are
    drained as records are pushed; only {!Encoder.close} pads the final
    byte. *)
module Encoder : sig
  type t

  val to_channel : format:format -> ?flush_bytes:int -> out_channel -> t
  (** Writes the streamed header immediately. [flush_bytes] bounds the
      internal buffer (default 64 KiB). The channel is flushed at every
      drain but never closed by the encoder. *)

  val push : t -> Record.t -> unit
  (** Append one record. Raises [Invalid_argument] after {!close}. *)

  val pushed : t -> int
  (** Records pushed so far. *)

  val close : t -> unit
  (** Drain remaining bytes, pad the final partial byte and flush.
      Idempotent. *)
end

(** Sharded trace files: [stem.NNNN.rtr] with consecutive indices from
    0000. Each shard is a complete self-describing stream (own header,
    own count, fresh delta state), so shards decode and lint on their
    own and a concatenating cursor chains them. *)
module Shard : sig
  val extension : string
  (** [".rtr"] *)

  val expand : string -> string list option
  (** Expand a user-supplied path — any shard of a set, or a bare stem —
      to the full ordered shard list found on disk. [None] when the path
      names no shard set. *)

  val write :
    format:format ->
    records_per_shard:int ->
    stem:string ->
    Record.t array ->
    string list
  (** Split a trace into shards of about [records_per_shard] records
      (at least one shard, even for an empty trace) and write them;
      returns the shard paths in order. A shard never ends inside a
      wrong-path block — the cut point slides forward to the block
      boundary — so every shard starts untagged and lints clean on its
      own. *)
end

(** Payload bits counted record by record without encoding: the field
    widths, sequential-PC test and delta thresholds of the encoder, so a
    count always equals the bit length of the real encoding. Streamed
    runs feed it one record at a time. *)
module Bit_count : sig
  type t

  val create : ?format:format -> unit -> t
  (** An empty count with fresh delta state; default format [Fixed]. *)

  val add : t -> Record.t -> unit
  (** Count the next record of the stream. *)

  val per_instruction : t -> float
  (** [bits] over the records added; 0 when none were. *)
end

val bits_per_instruction : ?format:format -> Record.t array -> float
(** Payload bits (as {!Bit_count} counts them, stream header excluded —
    the quantity the paper reports per instruction) over
    [Array.length records]; 0 for an empty trace. *)

val write_file : format:format -> string -> Record.t array -> unit

val read_file : string -> Record.t array * format
(** Raises {!Corrupt} on malformed bytes or host I/O failure — a typed
    wrapper over {!read_file_result}, never a raw [Sys_error]. *)

val read_file_result : string -> (Record.t array * format, error) result
(** [read_file] with structured errors: host-level failures (missing or
    unreadable file, short read) surface as RSM-T009, malformed bytes as
    the usual RSM-T001..T003 with absolute byte offsets. *)
