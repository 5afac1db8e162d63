module Writer = struct
  type t = {
    buffer : Buffer.t;
    mutable acc : int;     (* pending bits, left-aligned in [acc_bits] *)
    mutable acc_bits : int;
    mutable total : int;
  }

  let create () = { buffer = Buffer.create 4096; acc = 0; acc_bits = 0; total = 0 }

  let flush_bytes w =
    while w.acc_bits >= 8 do
      let shift = w.acc_bits - 8 in
      Buffer.add_char w.buffer (Char.chr ((w.acc lsr shift) land 0xff));
      w.acc <- w.acc land ((1 lsl shift) - 1);
      w.acc_bits <- shift
    done

  (* The whole field joins [acc] in one shift when it fits the 62 bits
     an int holds without touching the sign; flushing keeps [acc_bits]
     under 8, so only fields of 55+ bits ever take the split. *)
  let rec put_field w bits value =
    if w.acc_bits + bits <= 62 then begin
      w.acc <- (w.acc lsl bits) lor (value land ((1 lsl bits) - 1));
      w.acc_bits <- w.acc_bits + bits;
      flush_bytes w
    end
    else begin
      put_field w (bits - 32) (value lsr 32);
      put_field w 32 value
    end

  let put w ~bits value =
    if bits <= 0 || bits > 62 then invalid_arg "Bitio.Writer.put: bits";
    put_field w bits value;
    w.total <- w.total + bits

  let put_bool w b = put w ~bits:1 (if b then 1 else 0)

  let contents w =
    (* Zero-pad the pending bits into a final byte without touching the
       writer state: [contents] is a pure snapshot, so calling it twice
       — or continuing to [put] afterwards — stays correct. *)
    if w.acc_bits = 0 then Buffer.contents w.buffer
    else
      Buffer.contents w.buffer
      ^ String.make 1 (Char.chr ((w.acc lsl (8 - w.acc_bits)) land 0xff))

  (* Streaming support: hand over the complete bytes accumulated so far
     and reset the byte buffer, keeping the sub-byte remainder pending.
     Unlike [contents] this never pads, so a producer can [drain]
     between records indefinitely and the bit stream stays seamless. *)
  let drain w =
    let bytes = Buffer.contents w.buffer in
    Buffer.clear w.buffer;
    bytes

  let buffered_bytes w = Buffer.length w.buffer
end

module Reader = struct
  (* A reader is either a whole in-memory string ([refill = None]) or a
     bounded sliding chunk over a larger stream: when the current chunk
     is exhausted, [refill] produces the next one ("" = end of stream).
     [base] is the absolute stream offset of [data.[0]], so byte
     positions — and therefore every diagnostic derived from them — are
     absolute regardless of chunking. *)
  type t = {
    mutable data : string;
    mutable byte : int;
    mutable bit : int;   (* bits already consumed of [data.[byte]] *)
    mutable total : int; (* absolute bits consumed *)
    mutable base : int;  (* absolute stream offset of [data.[0]] *)
    refill : (unit -> string) option;
    mutable eof : bool;  (* refill returned "" — the stream is over *)
  }

  exception Out_of_bits

  let create data =
    { data; byte = 0; bit = 0; total = 0; base = 0; refill = None;
      eof = true }

  let of_refill refill =
    { data = ""; byte = 0; bit = 0; total = 0; base = 0;
      refill = Some refill; eof = false }

  (* Bits known to remain without asking the producer for more. *)
  let buffered_bits r = ((r.base + String.length r.data) * 8) - r.total

  (* Make at least [n] more bits available, pulling chunks as needed;
     false once the stream cannot supply them. Fully consumed bytes are
     dropped at each refill — the unread tail (including the partially
     consumed current byte, when [bit] > 0) is retained in front of the
     new chunk, so memory stays O(chunk + record) and positions stay
     absolute via [base]. *)
  let rec ensure_bits r n =
    if buffered_bits r >= n then true
    else
      match r.refill with
      | None -> false
      | Some refill ->
          if r.eof then false
          else begin
            let chunk = refill () in
            if String.length chunk = 0 then begin
              r.eof <- true;
              false
            end
            else begin
              let keep = String.length r.data - r.byte in
              let tail =
                if keep > 0 then String.sub r.data r.byte keep else ""
              in
              r.base <- r.base + r.byte;
              r.data <- tail ^ chunk;
              r.byte <- 0;
              ensure_bits r n
            end
          end

  (* A buffered field is read whole: the rest of the current byte, then
     full bytes, then the head of the last one. [bits] <= 62, so [acc]
     never holds more than the field. *)
  let get_buffered r bits =
    let data = r.data in
    let avail = 8 - r.bit in
    let head = Char.code (String.get data r.byte) land ((1 lsl avail) - 1) in
    r.total <- r.total + bits;
    if bits < avail then begin
      r.bit <- r.bit + bits;
      head lsr (avail - bits)
    end
    else begin
      let acc = ref head and remaining = ref (bits - avail)
      and byte = ref (r.byte + 1) in
      while !remaining >= 8 do
        acc := (!acc lsl 8) lor Char.code (String.get data !byte);
        incr byte;
        remaining := !remaining - 8
      done;
      if !remaining > 0 then
        acc :=
          (!acc lsl !remaining)
          lor (Char.code (String.get data !byte) lsr (8 - !remaining));
      r.byte <- !byte;
      r.bit <- !remaining;
      !acc
    end

  (* A field the stream cannot finish consumes what is there, as a
     bit-serial reader would before hitting the first missing bit: the
     reader ends exhausted (every buffered bit counted, positioned at the
     stream's end), then raises. [ensure_bits] failing means the stream
     is over, so nothing more will arrive. *)
  let exhaust r =
    r.total <- r.total + buffered_bits r;
    r.byte <- String.length r.data;
    r.bit <- 0;
    raise Out_of_bits

  let get r ~bits =
    if bits <= 0 || bits > 62 then invalid_arg "Bitio.Reader.get: bits";
    if buffered_bits r >= bits || ensure_bits r bits then get_buffered r bits
    else exhaust r

  let get_bool r = get r ~bits:1 = 1

  (* Bits known to remain without blocking on the producer: exact for
     string readers, a lower bound mid-stream for chunked ones. *)
  let bits_remaining r = buffered_bits r

  (* Whether at least [n] more bits exist, refilling as needed — the
     end-of-stream test for streamed (count-free) traces and trailing
     -byte checks. Never raises. *)
  let has_bits r n = ensure_bits r n

  (* The absolute stream offset of the byte holding the next unread bit
     (= stream length so far when exhausted). *)
  let byte_position r = r.base + r.byte

  (* Past the buffered bytes, a chunked reader consumes them and refills
     until [byte] is buffered: a forward scan walks any stream. *)
  let rec seek_byte r byte =
    let local = byte - r.base in
    if local < 0 then invalid_arg "Bitio.Reader.seek_byte: behind the window";
    if local <= String.length r.data then begin
      r.byte <- local;
      r.bit <- 0;
      r.total <- byte * 8;
      true
    end
    else begin
      r.byte <- String.length r.data;
      r.bit <- 0;
      r.total <- (r.base + r.byte) * 8;
      ensure_bits r 8 && seek_byte r byte
    end
end
