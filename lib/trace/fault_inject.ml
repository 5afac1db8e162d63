(* Deterministic trace corruption for robustness testing.

   Each corruption class mirrors one of the RSM-T trace-lint rules
   (DESIGN.md §9): injecting the class into a clean trace must make the
   linter / codec / engine surface the matching structured diagnostic —
   never an anonymous exception, never a hang. Classes split into two
   families:

   - record-level: rewrite the decoded record array before encoding
     (tag-bit protocol violations, impossible payload fields);
   - byte-level: corrupt the encoded stream after encoding (header
     damage, truncation, bit rot).

   Everything is seeded and free of [Random]/wall-clock state so a
   reported failure replays exactly from (class, seed). *)

type t =
  | Bit_flip
  | Truncate_payload
  | Truncate_header
  | Bad_magic
  | Bad_version
  | Bad_format
  | Count_overrun
  | Bad_field
  | Trailing_garbage
  | Orphan_tag
  | Tag_after_uncond
  | Runaway_tag
  | Bad_payload

let all =
  [ Bit_flip; Truncate_payload; Truncate_header; Bad_magic; Bad_version;
    Bad_format; Count_overrun; Bad_field; Trailing_garbage; Orphan_tag;
    Tag_after_uncond; Runaway_tag; Bad_payload ]

let name = function
  | Bit_flip -> "bit-flip"
  | Truncate_payload -> "truncate-payload"
  | Truncate_header -> "truncate-header"
  | Bad_magic -> "bad-magic"
  | Bad_version -> "bad-version"
  | Bad_format -> "bad-format"
  | Count_overrun -> "count-overrun"
  | Bad_field -> "bad-field"
  | Trailing_garbage -> "trailing-garbage"
  | Orphan_tag -> "orphan-tag"
  | Tag_after_uncond -> "tag-after-uncond"
  | Runaway_tag -> "runaway-tag"
  | Bad_payload -> "bad-payload"

let of_name s = List.find_opt (fun c -> String.equal (name c) s) all

let expected_code = function
  | Bad_magic | Bad_version | Bad_format | Truncate_header -> Some "RSM-T001"
  | Truncate_payload | Count_overrun -> Some "RSM-T002"
  | Bad_field -> Some "RSM-T003"
  | Trailing_garbage -> Some "RSM-T004"
  | Orphan_tag -> Some "RSM-T005"
  | Tag_after_uncond -> Some "RSM-T006"
  | Runaway_tag -> Some "RSM-T007"
  | Bad_payload -> Some "RSM-T008"
  | Bit_flip -> None

let severity = function
  | Trailing_garbage | Tag_after_uncond -> `Warning
  | Bit_flip -> `Varies
  | Truncate_payload | Truncate_header | Bad_magic | Bad_version | Bad_format
  | Count_overrun | Bad_field | Orphan_tag | Runaway_tag | Bad_payload ->
      `Error

let describe = function
  | Bit_flip -> "flip one payload bit (outcome depends on the field hit)"
  | Truncate_payload -> "drop bytes from the end of the payload"
  | Truncate_header -> "cut the stream inside the 14-byte header"
  | Bad_magic -> "corrupt a magic byte"
  | Bad_version -> "rewrite the version byte"
  | Bad_format -> "rewrite the format byte to an unknown code"
  | Count_overrun -> "inflate the declared record count past the payload"
  | Bad_field -> "force the first record's type code to the invalid value 3"
  | Trailing_garbage -> "append undeclared bytes after the last record"
  | Orphan_tag -> "tag a record that does not follow a branch"
  | Tag_after_uncond -> "start a tagged block after an unconditional branch"
  | Runaway_tag -> "append a tagged run longer than the wrong-path bound"
  | Bad_payload -> "record an unconditional branch as not taken"

let default_max_run = 64

(* splitmix-style avalanche over (seed, salt); 62-bit, no [Random]. *)
let hash seed salt =
  let h = (seed * 0x9E3779B1) lxor (salt * 0x85EBCA77) lxor 0x165667B1 in
  let h = (h lxor (h lsr 30)) * 0x45D9F3B3 in
  let h = (h lxor (h lsr 27)) * 0x27D4EB2F in
  (h lxor (h lsr 31)) land max_int

let set_byte data i c =
  let b = Bytes.of_string data in
  Bytes.set b i c;
  Bytes.unsafe_to_string b

(* ---- byte-level classes ------------------------------------------- *)

(* Byte-level corruption of an encoded stream; [None] when the class
   is record-level. A class that cannot apply (e.g. {!Bit_flip} on an
   empty payload) returns the stream unchanged. *)
let inject_encoded ~seed fault data =
  let len = String.length data in
  let hdr = Codec.header_length in
  match fault with
  | Bad_magic ->
      if len < 4 then Some data
      else
        let i = hash seed 1 mod 4 in
        Some (set_byte data i (Char.chr (Char.code data.[i] lxor 0xff)))
  | Bad_version ->
      if len < 5 then Some data else Some (set_byte data 4 '\xfe')
  | Bad_format ->
      if len < 6 then Some data else Some (set_byte data 5 '\x07')
  | Truncate_header -> Some (String.sub data 0 (min len (hash seed 2 mod hdr)))
  | Truncate_payload ->
      let payload = len - hdr in
      if payload <= 0 then Some data
      else
        let cut = 1 + (hash seed 3 mod payload) in
        Some (String.sub data 0 (len - cut))
  | Count_overrun ->
      if len < hdr then Some data
      else begin
        let b = Bytes.of_string data in
        let count = Bytes.get_int64_be b 6 in
        let extra = Int64.of_int (1 + (hash seed 4 mod 7)) in
        Bytes.set_int64_be b 6 (Int64.add count extra);
        Some (Bytes.unsafe_to_string b)
      end
  | Bad_field ->
      (* The first record is byte-aligned at the end of the header and
         opens with the 2-bit type code; 0b11 is unassigned. *)
      if len <= hdr then Some data
      else Some (set_byte data hdr (Char.chr (Char.code data.[hdr] lor 0xc0)))
  | Trailing_garbage ->
      let n = 1 + (hash seed 5 mod 16) in
      Some (data ^ String.init n (fun i -> Char.chr (hash seed (64 + i) land 0xff)))
  | Bit_flip ->
      let payload = len - hdr in
      if payload <= 0 then Some data
      else
        let i = hdr + (hash seed 7 mod payload) in
        let bit = hash seed 8 land 7 in
        Some (set_byte data i (Char.chr (Char.code data.[i] lxor (1 lsl bit))))
  | Orphan_tag | Tag_after_uncond | Runaway_tag | Bad_payload -> None

(* ---- record-level classes ----------------------------------------- *)

let with_wrong_path (r : Record.t) v = { r with Record.wrong_path = v }

let pick seed salt = function
  | [] -> None
  | l -> Some (List.nth l (hash seed salt mod List.length l))

(* RSM-T005: tag a record whose predecessor is neither a branch nor part
   of a tagged block — or the very first record of the trace. *)
let orphan_tag seed records =
  let n = Array.length records in
  if n = 0 then records
  else begin
    let candidates = ref [] in
    for i = n - 1 downto 0 do
      let start_ok =
        i = 0
        ||
        let prev = records.(i - 1) in
        (not (Record.is_branch prev)) && not prev.Record.wrong_path
      in
      if start_ok && not records.(i).Record.wrong_path then
        candidates := i :: !candidates
    done;
    let i = match pick seed 10 !candidates with Some i -> i | None -> 0 in
    let out = Array.copy records in
    out.(i) <- with_wrong_path out.(i) true;
    out
  end

let is_uncond_branch (r : Record.t) =
  match r.Record.payload with
  | Record.Branch { kind = Resim_isa.Opcode.Cond; _ } -> false
  | Record.Branch _ -> true
  | Record.Memory _ | Record.Other _ -> false

(* RSM-T006: start a tagged block right after an unconditional branch;
   when the trace has none, plant a jump at record 0. *)
let tag_after_uncond seed records =
  let n = Array.length records in
  if n < 2 then records
  else begin
    let candidates = ref [] in
    for i = n - 1 downto 1 do
      let prev = records.(i - 1) in
      if
        is_uncond_branch prev
        && (not prev.Record.wrong_path)
        && not records.(i).Record.wrong_path
      then candidates := i :: !candidates
    done;
    let out = Array.copy records in
    (match pick seed 11 !candidates with
    | Some i -> out.(i) <- with_wrong_path out.(i) true
    | None ->
        let r0 = out.(0) in
        out.(0) <-
          { r0 with
            Record.wrong_path = false;
            payload =
              Record.Branch
                { kind = Resim_isa.Opcode.Jump;
                  taken = true;
                  target = r0.Record.pc + 1 } };
        out.(1) <- with_wrong_path out.(1) true);
    out
  end

(* RSM-T007: append a mispredicted conditional branch followed by a
   tagged run one record longer than [max_run] — a stuck tag bit. *)
let runaway_tag max_run records =
  let n = Array.length records in
  let last_pc = if n = 0 then -1 else records.(n - 1).Record.pc in
  let branch_pc = last_pc + 1 in
  let branch : Record.t =
    { pc = branch_pc;
      wrong_path = false;
      dest = 0;
      src1 = 1;
      src2 = 0;
      payload =
        Record.Branch
          { kind = Resim_isa.Opcode.Cond;
            taken = true;
            target = branch_pc + 2 } }
  in
  let tagged i : Record.t =
    { pc = branch_pc + 1 + i;
      wrong_path = true;
      dest = 0;
      src1 = 0;
      src2 = 0;
      payload = Record.Other { op_class = Record.Alu } }
  in
  Array.concat [ records; [| branch |]; Array.init (max_run + 1) tagged ]

(* RSM-T008: an unconditional branch recorded as not taken — a field
   combination no well-formed generator can produce. *)
let bad_payload seed records =
  let n = Array.length records in
  if n = 0 then records
  else begin
    let candidates = ref [] in
    for i = n - 1 downto 0 do
      if Record.is_branch records.(i) then candidates := i :: !candidates
    done;
    let out = Array.copy records in
    (match pick seed 12 !candidates with
    | Some i ->
        let r = out.(i) in
        let target =
          match r.Record.payload with
          | Record.Branch { target; _ } -> target
          | Record.Memory _ | Record.Other _ -> 0
        in
        out.(i) <-
          { r with
            Record.payload =
              Record.Branch
                { kind = Resim_isa.Opcode.Ret; taken = false; target } }
    | None ->
        let r0 = out.(0) in
        out.(0) <-
          { r0 with
            Record.payload =
              Record.Branch
                { kind = Resim_isa.Opcode.Jump;
                  taken = false;
                  target = r0.Record.pc + 1 } });
    out
  end

(* Record-level injection before encoding; [None] when the class is
   byte-level. Never mutates its input. *)
let inject_records ~seed fault records =
  match fault with
  | Orphan_tag -> Some (orphan_tag seed records)
  | Tag_after_uncond -> Some (tag_after_uncond seed records)
  | Runaway_tag -> Some (runaway_tag default_max_run records)
  | Bad_payload -> Some (bad_payload seed records)
  | Bit_flip | Truncate_payload | Truncate_header | Bad_magic | Bad_version
  | Bad_format | Count_overrun | Bad_field | Trailing_garbage ->
      None

let apply ~seed ~format fault records =
  match inject_records ~seed fault records with
  | Some corrupted -> Codec.encode ~format corrupted
  | None -> (
      let encoded = Codec.encode ~format records in
      match inject_encoded ~seed fault encoded with
      | Some corrupted -> corrupted
      | None -> assert false (* every class is in exactly one family *))
