(** Bit-granular writer/reader used by the trace codec.

    Bits are emitted most-significant-first within each byte. Values are
    written as fixed-width unsigned fields; signed fields use the codec's
    own zig-zag mapping.

    Readers come in two flavours: whole in-memory strings ({!Reader.create})
    and chunked sliding windows over a larger stream ({!Reader.of_refill}),
    which hold O(chunk) bytes regardless of stream length. Byte positions
    are absolute stream offsets in both cases, so diagnostics derived from
    them never depend on the chunking. *)

module Writer : sig
  type t

  val create : unit -> t
  val put : t -> bits:int -> int -> unit
  (** [put w ~bits v] appends the low [bits] bits of [v] (1..62). *)

  val put_bool : t -> bool -> unit
  val contents : t -> string
  (** The bytes written so far, a final partial byte zero-padded. A pure
      snapshot: the writer is untouched, so [contents] is idempotent and
      further [put]s continue from the un-padded bit position. *)

  val drain : t -> string
  (** Hand over the complete bytes accumulated so far and forget them,
      keeping any sub-byte remainder pending. Never pads, so draining
      between records keeps the bit stream seamless — the constant-memory
      half of streaming encode. *)

  val buffered_bytes : t -> int
  (** Complete bytes currently held (what the next {!drain} returns). *)
end

module Reader : sig
  type t

  exception Out_of_bits

  val create : string -> t
  (** Reader over a whole in-memory string. *)

  val of_refill : (unit -> string) -> t
  (** Chunked reader: the callback supplies the next chunk of the stream,
      [""] meaning end of stream. Only O(chunk + one record) bytes are
      retained; all positions stay absolute. *)

  val get : t -> bits:int -> int
  val get_bool : t -> bool
  val bits_remaining : t -> int
  (** Bits remaining without blocking on the producer: exact for string
      readers, a buffered lower bound for chunked ones (see {!has_bits}
      for the blocking test). *)

  val has_bits : t -> int -> bool
  (** Whether at least this many bits remain, pulling further chunks as
      needed. The end-of-stream test for streamed traces; never raises. *)

  val byte_position : t -> int
  (** Absolute stream offset of the byte holding the next unread bit;
      the stream length consumed so far once the reader is exhausted. *)

  val seek_byte : t -> int -> bool
  (** Reposition the reader to the start of the given absolute byte
      (resync support for degraded decoding); [false] when the stream
      ends before that byte, leaving the reader at its end. Forward of
      the buffered window a chunked reader refills, dropping the bytes
      it passes, so it can seek anywhere ahead of the oldest byte it
      still holds. Raises [Invalid_argument] behind that byte —
      whole-string readers hold every byte. *)
end
