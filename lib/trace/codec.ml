type format = Fixed | Compact

exception Corrupt of string

let magic = "RSTR"
let version = 1

(* Field widths (bits). PCs and branch targets are instruction indices;
   addresses are byte addresses. *)
let type_bits = 2
let reg_bits = 5
let class_bits = 2
let kind_bits = 3
let pc_bits = 30
let addr_bits = 32
let selector_bits = 2

let type_other = 0
let type_memory = 1
let type_branch = 2

let class_code : Record.op_class -> int = function
  | Alu -> 0
  | Mult -> 1
  | Divide -> 2

let class_of_code = function
  | 0 -> Record.Alu
  | 1 -> Record.Mult
  | 2 -> Record.Divide
  | n -> raise (Corrupt (Printf.sprintf "op class %d" n))

let kind_code : Resim_isa.Opcode.branch_kind -> int = function
  | Cond -> 0 | Jump -> 1 | Call -> 2 | Ret -> 3 | Indirect -> 4

let kind_of_code : int -> Resim_isa.Opcode.branch_kind = function
  | 0 -> Cond | 1 -> Jump | 2 -> Call | 3 -> Ret | 4 -> Indirect
  | n -> raise (Corrupt (Printf.sprintf "branch kind %d" n))

let zigzag n = (n lsl 1) lxor (n asr 62)
let unzigzag z = (z lsr 1) lxor (- (z land 1))

(* Compact deltas: a 2-bit selector chooses an 8/16/24-bit zig-zag delta
   or a full-width absolute escape (selector 3). The thresholds live in
   [delta_selector] alone, so the encoder and the bit counter agree. *)
let delta_selector delta =
  if delta < 1 lsl 8 then 0
  else if delta < 1 lsl 16 then 1
  else if delta < 1 lsl 24 then 2
  else 3

let delta_width selector = 8 * (selector + 1)

let put_delta w ~abs_bits ~value ~reference =
  let delta = zigzag (value - reference) in
  match delta_selector delta with
  | 3 ->
      Bitio.Writer.put w ~bits:selector_bits 3;
      Bitio.Writer.put w ~bits:abs_bits value
  | selector ->
      Bitio.Writer.put w ~bits:selector_bits selector;
      Bitio.Writer.put w ~bits:(delta_width selector) delta

let delta_bits ~abs_bits ~value ~reference =
  match delta_selector (zigzag (value - reference)) with
  | 3 -> selector_bits + abs_bits
  | selector -> selector_bits + delta_width selector

let get_delta r ~abs_bits ~reference =
  match Bitio.Reader.get r ~bits:selector_bits with
  | 3 -> Bitio.Reader.get r ~bits:abs_bits
  | selector ->
      reference + unzigzag (Bitio.Reader.get r ~bits:(delta_width selector))

type encoder_state = { mutable prev_pc : int; mutable prev_addr : int }

let encode_record format w state (record : Record.t) =
  let type_code =
    match record.payload with
    | Other _ -> type_other
    | Memory _ -> type_memory
    | Branch _ -> type_branch
  in
  Bitio.Writer.put w ~bits:type_bits type_code;
  Bitio.Writer.put_bool w record.wrong_path;
  Bitio.Writer.put w ~bits:reg_bits record.dest;
  Bitio.Writer.put w ~bits:reg_bits record.src1;
  Bitio.Writer.put w ~bits:reg_bits record.src2;
  let sequential = record.pc = state.prev_pc + 1 in
  Bitio.Writer.put_bool w sequential;
  if not sequential then begin
    match format with
    | Fixed -> Bitio.Writer.put w ~bits:pc_bits record.pc
    | Compact ->
        put_delta w ~abs_bits:pc_bits ~value:record.pc
          ~reference:(state.prev_pc + 1)
  end;
  state.prev_pc <- record.pc;
  match record.payload with
  | Other { op_class } ->
      Bitio.Writer.put w ~bits:class_bits (class_code op_class)
  | Memory { is_load; address } ->
      Bitio.Writer.put_bool w is_load;
      (match format with
      | Fixed -> Bitio.Writer.put w ~bits:addr_bits address
      | Compact ->
          put_delta w ~abs_bits:addr_bits ~value:address
            ~reference:state.prev_addr);
      state.prev_addr <- address
  | Branch { kind; taken; target } -> (
      Bitio.Writer.put w ~bits:kind_bits (kind_code kind);
      Bitio.Writer.put_bool w taken;
      match format with
      | Fixed -> Bitio.Writer.put w ~bits:pc_bits target
      | Compact ->
          put_delta w ~abs_bits:pc_bits ~value:target ~reference:record.pc)

(* [encode_record]'s bit count without encoding: the same field widths,
   the same sequential-PC test and delta thresholds, and the same state
   updates. Type, tag, three registers and the sequential flag open
   every record. *)
let record_head_bits = type_bits + 1 + (3 * reg_bits) + 1

(* The longest record either format writes: a non-sequential PC and a
   branch target, each a selector plus an absolute escape. *)
let max_record_bits =
  let field abs_bits = selector_bits + abs_bits in
  record_head_bits + field pc_bits
  + Int.max class_bits
      (Int.max (1 + field addr_bits) (kind_bits + 1 + field pc_bits))

let record_bits format state (record : Record.t) =
  let pc_bits_used =
    if record.pc = state.prev_pc + 1 then 0
    else
      match format with
      | Fixed -> pc_bits
      | Compact ->
          delta_bits ~abs_bits:pc_bits ~value:record.pc
            ~reference:(state.prev_pc + 1)
  in
  state.prev_pc <- record.pc;
  let payload_bits =
    match record.payload with
    | Other _ -> class_bits
    | Memory { address; _ } ->
        let address_bits =
          match format with
          | Fixed -> addr_bits
          | Compact ->
              delta_bits ~abs_bits:addr_bits ~value:address
                ~reference:state.prev_addr
        in
        state.prev_addr <- address;
        1 + address_bits
    | Branch { target; _ } -> (
        kind_bits + 1
        +
        match format with
        | Fixed -> pc_bits
        | Compact ->
            delta_bits ~abs_bits:pc_bits ~value:target ~reference:record.pc)
  in
  record_head_bits + pc_bits_used + payload_bits

let decode_record format r state : Record.t =
  let type_code = Bitio.Reader.get r ~bits:type_bits in
  let wrong_path = Bitio.Reader.get_bool r in
  let dest = Bitio.Reader.get r ~bits:reg_bits in
  let src1 = Bitio.Reader.get r ~bits:reg_bits in
  let src2 = Bitio.Reader.get r ~bits:reg_bits in
  let sequential = Bitio.Reader.get_bool r in
  let pc =
    if sequential then state.prev_pc + 1
    else
      match format with
      | Fixed -> Bitio.Reader.get r ~bits:pc_bits
      | Compact -> get_delta r ~abs_bits:pc_bits ~reference:(state.prev_pc + 1)
  in
  state.prev_pc <- pc;
  let payload =
    if type_code = type_other then
      Record.Other { op_class = class_of_code (Bitio.Reader.get r ~bits:class_bits) }
    else if type_code = type_memory then begin
      let is_load = Bitio.Reader.get_bool r in
      let address =
        match format with
        | Fixed -> Bitio.Reader.get r ~bits:addr_bits
        | Compact -> get_delta r ~abs_bits:addr_bits ~reference:state.prev_addr
      in
      state.prev_addr <- address;
      Record.Memory { is_load; address }
    end
    else if type_code = type_branch then begin
      let kind = kind_of_code (Bitio.Reader.get r ~bits:kind_bits) in
      let taken = Bitio.Reader.get_bool r in
      let target =
        match format with
        | Fixed -> Bitio.Reader.get r ~bits:pc_bits
        | Compact -> get_delta r ~abs_bits:pc_bits ~reference:pc
      in
      Record.Branch { kind; taken; target }
    end
    else raise (Corrupt (Printf.sprintf "record type %d" type_code))
  in
  { pc; wrong_path; dest; src1; src2; payload }

let fresh_state () = { prev_pc = -1; prev_addr = 0 }

let format_code = function Fixed -> 0 | Compact -> 1

let format_of_code = function
  | 0 -> Fixed
  | 1 -> Compact
  | n -> raise (Corrupt (Printf.sprintf "format %d" n))

let payload_string ~format records =
  let w = Bitio.Writer.create () in
  let state = fresh_state () in
  Array.iter (encode_record format w state) records;
  Bitio.Writer.contents w

(* A record count of -1 in the header marks a *streamed* trace: the
   producer did not know the count up front (tracegen --stream, pipes),
   and readers consume records until the payload runs dry. Any other
   negative count is corruption. *)
let streamed_count = -1L

let header_string ~format ~count =
  let header = Buffer.create 16 in
  Buffer.add_string header magic;
  Buffer.add_uint8 header version;
  Buffer.add_uint8 header (format_code format);
  Buffer.add_int64_be header (Int64.of_int count);
  Buffer.contents header

let encode ?(format = Fixed) records =
  let payload = payload_string ~format records in
  header_string ~format ~count:(Array.length records) ^ payload

let header_length = 4 + 1 + 1 + 8

type error = { error_code : string; byte_offset : int; reason : string }

let error_to_string e =
  Printf.sprintf "[%s] byte %d: %s" e.error_code e.byte_offset e.reason

module Cursor = struct
  type t = {
    reader : Bitio.Reader.t;
    format : format;
    count : int;
    state : encoder_state;
    mutable decoded : int;
    mutable salvage_over : bool;
        (* the salvage loop found no boundary to resume at *)
  }

  let header_error data =
    if String.length data < header_length then
      Some
        { error_code = "RSM-T001";
          byte_offset = String.length data;
          reason =
            Printf.sprintf "truncated header (%d of %d bytes)"
              (String.length data) header_length }
    else if String.sub data 0 4 <> magic then
      Some { error_code = "RSM-T001"; byte_offset = 0; reason = "bad magic" }
    else if Char.code data.[4] <> version then
      Some
        { error_code = "RSM-T001";
          byte_offset = 4;
          reason = Printf.sprintf "bad version %d" (Char.code data.[4]) }
    else if Char.code data.[5] > 1 then
      Some
        { error_code = "RSM-T001";
          byte_offset = 5;
          reason = Printf.sprintf "bad format code %d" (Char.code data.[5]) }
    else if
      String.get_int64_be data 6 < 0L
      && String.get_int64_be data 6 <> streamed_count
    then Some { error_code = "RSM-T001"; byte_offset = 6; reason = "bad count" }
    else None

  let of_string_result data =
    match header_error data with
    | Some error -> Error error
    | None ->
        let format = format_of_code (Char.code data.[5]) in
        let count = Int64.to_int (String.get_int64_be data 6) in
        let payload =
          String.sub data header_length (String.length data - header_length)
        in
        Ok
          { reader = Bitio.Reader.create payload;
            format;
            count;
            state = fresh_state ();
            decoded = 0;
            salvage_over = false }

  (* Chunked construction: parse the header from the channel, then hand
     the payload to a refilling reader that holds O(chunk) bytes at a
     time. Byte offsets in diagnostics stay absolute file offsets — the
     reader tracks the stream base across refills. *)
  let default_chunk = 64 * 1024

  let of_channel_result ?(chunk = default_chunk) ic =
    if chunk <= 0 then invalid_arg "Codec.Cursor.of_channel: chunk";
    let header = Bytes.create header_length in
    let rec fill at =
      if at >= header_length then at
      else
        let n = input ic header at (header_length - at) in
        if n = 0 then at else fill (at + n)
    in
    match fill 0 with
    | exception Sys_error reason ->
        Error { error_code = "RSM-T009"; byte_offset = 0; reason }
    | got -> (
        match header_error (Bytes.sub_string header 0 got) with
        | Some error -> Error error
        | None ->
            let refill () =
              let buffer = Bytes.create chunk in
              match input ic buffer 0 chunk with
              | n -> Bytes.sub_string buffer 0 n
              | exception Sys_error reason ->
                  Fault.fail ~code:"RSM-T009" ~offset:0 reason
            in
            Ok
              { reader = Bitio.Reader.of_refill refill;
                format = format_of_code (Bytes.get_uint8 header 5);
                count = Int64.to_int (Bytes.get_int64_be header 6);
                state = fresh_state ();
                decoded = 0;
                salvage_over = false })

  let format t = t.format
  let count t = t.count
  let decoded t = t.decoded

  let streamed t = t.count < 0

  (* Streamed cursors have no declared count: the next record exists as
     long as a whole payload byte does. End-of-stream zero padding is at
     most 7 bits, and no record is shorter than 8, so the test is exact
     at a clean end of stream; a mid-record cut still surfaces from the
     decoder as RSM-T002. *)
  let has_next t =
    if streamed t then Bitio.Reader.has_bits t.reader 8
    else t.decoded < t.count

  (* Payload position of the byte holding the next unread bit, relative
     to the whole stream (header included) so diagnostics point into the
     file the user has. *)
  let byte_offset t = header_length + Bitio.Reader.byte_position t.reader

  let next_result t =
    if not (has_next t) then
      Error
        { error_code = "RSM-T002";
          byte_offset = byte_offset t;
          reason = "cursor exhausted: all declared records decoded" }
    else
      let at = byte_offset t in
      match decode_record t.format t.reader t.state with
      | record ->
          t.decoded <- t.decoded + 1;
          Ok record
      | exception Bitio.Reader.Out_of_bits ->
          Error
            { error_code = "RSM-T002";
              byte_offset = at;
              reason =
                (if streamed t then
                   Printf.sprintf
                     "stream ends inside record %d (streamed trace cut \
                      mid-record)"
                     t.decoded
                 else
                   Printf.sprintf "payload ends inside record %d of %d"
                     t.decoded t.count) }
      | exception Corrupt reason ->
          Error
            { error_code = "RSM-T003";
              byte_offset = at;
              reason = Printf.sprintf "undecodable record: %s" reason }

  let bits_remaining t = Bitio.Reader.bits_remaining t.reader

  (* Whole bytes left after the declared records — refills once so the
     check is also meaningful on chunked cursors. The byte count is the
     buffered lower bound (exact for in-memory cursors). *)
  let trailing_bytes t =
    if Bitio.Reader.has_bits t.reader 8 then
      Bitio.Reader.bits_remaining t.reader / 8
    else 0

  (* Degraded-mode resync: scan forward byte-by-byte for a position from
     which a record (and, when enough payload remains, the record after
     it) decodes cleanly, then park the cursor there. Decoder state
     (previous PC/address) carries over from the last good record, so
     resynced deltas may still be semantically wrong — the caller marks
     the run degraded; resync only restores structural decodability.
     The scan only moves forward, so it runs on a chunked cursor too:
     each trial first makes two maximal records from its offset
     resident, so it never refills mid-trial and re-parking never seeks
     into a dropped chunk. It ends where [seek_byte] finds no byte. *)
  let resync t =
    let r = t.reader in
    let start = Bitio.Reader.byte_position r in
    let try_at () =
      ignore (Bitio.Reader.has_bits r (2 * max_record_bits));
      let trial =
        { prev_pc = t.state.prev_pc; prev_addr = t.state.prev_addr }
      in
      match
        let first = decode_record t.format r trial in
        if Bitio.Reader.bits_remaining r >= 8 then
          ignore (decode_record t.format r trial);
        first
      with
      | _ -> true
      | exception (Bitio.Reader.Out_of_bits | Corrupt _) -> false
    in
    let rec scan offset =
      if not (Bitio.Reader.seek_byte r offset) then None
      else if try_at () then begin
        (* Re-park at the validated offset: the probe consumed records. *)
        ignore (Bitio.Reader.seek_byte r offset);
        Some (offset - start)
      end
      else scan (offset + 1)
    in
    scan (start + 1)

  (* The one salvage loop. Skipping abandons the record-count
     bookkeeping for the skipped span, so decoding goes on until the
     payload runs dry or the count is met. *)
  let rec next_salvaged t ~fault =
    if t.salvage_over || not (has_next t) then None
    else
      match next_result t with
      | Ok record -> Some record
      | Error error -> (
          fault
            (Fault.make ~code:error.error_code ~offset:t.decoded
               ~context:
                 (Printf.sprintf "byte %d: %s" error.byte_offset error.reason));
          match resync t with
          | Some _skipped ->
              t.decoded <- t.decoded + 1;
              next_salvaged t ~fault
          | None ->
              t.salvage_over <- true;
              None)
end

(* How many records to pre-size a decode for: the declared count, capped
   by what the payload can hold (no record is shorter than a head plus
   an op class), so a corrupt count cannot demand a huge array.
   Streamed traces declare nothing and grow by doubling. *)
let min_record_bits = record_head_bits + class_bits

let initial_capacity cursor =
  if Cursor.streamed cursor then 1024
  else
    min (Cursor.count cursor)
      ((Cursor.bits_remaining cursor / min_record_bits) + 1)

let decode_result data =
  match Cursor.of_string_result data with
  | Error error -> Error error
  | Ok cursor ->
      let records = Collect.create (initial_capacity cursor) in
      let rec collect () =
        if not (Cursor.has_next cursor) then
          Ok (Collect.contents records, Cursor.format cursor)
        else
          match Cursor.next_result cursor with
          | Ok record ->
              Collect.push records record;
              collect ()
          | Error error -> Error error
      in
      collect ()

(* Degraded decode: the salvage loop drained over an in-memory cursor.
   Returns [Error] only when the stream header itself is unusable. *)
let decode_degraded data =
  match Cursor.of_string_result data with
  | Error error -> Error error
  | Ok cursor ->
      let faults = ref [] in
      let records = Collect.create (initial_capacity cursor) in
      let fault f = faults := f :: !faults in
      let rec drain () =
        match Cursor.next_salvaged cursor ~fault with
        | Some record ->
            Collect.push records record;
            drain ()
        | None -> ()
      in
      drain ();
      Ok (Collect.contents records, Cursor.format cursor, List.rev !faults)

(* Payload bits counted record by record, never encoded: the materialized
   and streamed runs both report bits/instr through this counter. *)
module Bit_count = struct
  type t = {
    format : format;
    state : encoder_state;
    mutable bits : int;
    mutable records : int;
  }

  let create ?(format = Fixed) () =
    { format; state = fresh_state (); bits = 0; records = 0 }

  let add t record =
    t.bits <- t.bits + record_bits t.format t.state record;
    t.records <- t.records + 1

  let per_instruction t =
    if t.records = 0 then 0.0
    else float_of_int t.bits /. float_of_int t.records
end

let count_bits ?format records =
  let counter = Bit_count.create ?format () in
  Array.iter (Bit_count.add counter) records;
  counter

let bits_per_instruction ?format records =
  Bit_count.per_instruction (count_bits ?format records)

let write_file ~format path records =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (encode ~format records))

(* Host-level failures (missing file, permissions, a file shorter than
   its own header claims) are part of the same typed-error surface as
   malformed bytes: RSM-T009, byte offset 0, with the host's reason.
   Nothing below here lets a raw [Sys_error]/[End_of_file] escape. *)
let io_error reason = { error_code = "RSM-T009"; byte_offset = 0; reason }

let with_file_in path f =
  match open_in_bin path with
  | exception Sys_error reason -> Error (io_error reason)
  | ic -> Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> f ic)

let read_file_result path =
  with_file_in path (fun ic ->
      match really_input_string ic (in_channel_length ic) with
      | exception End_of_file ->
          Error (io_error (path ^ ": file shrank while reading"))
      | exception Sys_error reason -> Error (io_error reason)
      | data -> decode_result data)

let read_file path =
  match read_file_result path with
  | Ok (records, format) -> (records, format)
  | Error { reason; _ } -> raise (Corrupt reason)

(* --- streaming encoder --------------------------------------------- *)

(* Constant-memory encode to a channel: the header goes out first with
   [streamed_count] (the producer does not know the total), then whole
   bytes are drained to the channel as records accumulate. Only [close]
   pads, so the byte stream is seamless at every drain point. *)
module Encoder = struct
  type t = {
    writer : Bitio.Writer.t;
    channel : out_channel;
    format : format;
    state : encoder_state;
    flush_bytes : int;
    mutable pushed : int;
    mutable closed : bool;
  }

  let to_channel ~format ?(flush_bytes = 64 * 1024) channel =
    if flush_bytes <= 0 then invalid_arg "Codec.Encoder.to_channel: flush";
    output_string channel
      (header_string ~format ~count:(Int64.to_int streamed_count));
    { writer = Bitio.Writer.create ();
      channel;
      format;
      state = fresh_state ();
      flush_bytes;
      pushed = 0;
      closed = false }

  let push t record =
    if t.closed then invalid_arg "Codec.Encoder.push: closed";
    encode_record t.format t.writer t.state record;
    t.pushed <- t.pushed + 1;
    if Bitio.Writer.buffered_bytes t.writer >= t.flush_bytes then begin
      output_string t.channel (Bitio.Writer.drain t.writer);
      flush t.channel
    end

  let pushed t = t.pushed

  let close t =
    if not t.closed then begin
      t.closed <- true;
      output_string t.channel (Bitio.Writer.drain t.writer);
      output_string t.channel (Bitio.Writer.contents t.writer);
      flush t.channel
    end
end

(* --- sharded trace files ------------------------------------------- *)

(* Shard naming: [stem.NNNN.rtr], four zero-padded digits, indices
   consecutive from 0. Each shard is a complete self-describing stream
   (own header, own count, fresh delta state), so every shard lints and
   decodes on its own and a concatenating cursor just chains them. *)
module Shard = struct
  let extension = ".rtr"

  (* [path ~stem:"trace" 3] is ["trace.0003.rtr"]. *)
  let path ~stem index = Printf.sprintf "%s.%04d%s" stem index extension

  (* [stem_of "trace.0003.rtr"] = Some ("trace", 3). *)
  let stem_of path =
    if not (Filename.check_suffix path extension) then None
    else
      let base = Filename.chop_suffix path extension in
      let n = String.length base in
      if n < 5 || base.[n - 5] <> '.' then None
      else
        let digits = String.sub base (n - 4) 4 in
        if String.for_all (fun c -> c >= '0' && c <= '9') digits then
          Some (String.sub base 0 (n - 5), int_of_string digits)
        else None

  (* Expand a user-supplied path to the shard set it names. Accepts any
     shard of the set (the set always restarts at 0000) or the bare
     stem; [None] when the path is neither shard-shaped nor a stem with
     a 0000 shard next to it. *)
  let expand candidate =
    let from_stem stem =
      let rec collect index acc =
        let shard = path ~stem index in
        if Sys.file_exists shard then collect (index + 1) (shard :: acc)
        else List.rev acc
      in
      collect 0 []
    in
    let stem =
      match stem_of candidate with
      | Some (stem, _) -> Some stem
      | None ->
          if Sys.file_exists (path ~stem:candidate 0) then Some candidate
          else None
    in
    match stem with
    | None -> None
    | Some stem -> ( match from_stem stem with [] -> None | p -> Some p)

  let write ~format ~records_per_shard ~stem records =
    if records_per_shard <= 0 then
      invalid_arg "Codec.Shard.write: records_per_shard";
    let total = Array.length records in
    (* [records_per_shard] is a target, not an exact size: a shard never
       ends inside a wrong-path block, so every shard starts with an
       untagged record and lints clean on its own (the tag-bit protocol
       requires a block to follow its mispredicted branch). *)
    let rec cut index start acc =
      if start >= total then List.rev acc
      else begin
        let stop = ref (min total (start + records_per_shard)) in
        while !stop < total && records.(!stop).Record.wrong_path do
          incr stop
        done;
        let slice = Array.sub records start (!stop - start) in
        let shard_path = path ~stem index in
        write_file ~format shard_path slice;
        cut (index + 1) !stop (shard_path :: acc)
      end
    in
    match cut 0 0 [] with
    | [] ->
        (* An empty trace still writes one (empty) shard, so the set
           exists on disk and expands. *)
        let shard_path = path ~stem 0 in
        write_file ~format shard_path [||];
        [ shard_path ]
    | shards -> shards
end
