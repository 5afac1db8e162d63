(* Tests for the trace record model, bit-level I/O and the binary codec. *)

open Resim_trace

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* --- bit I/O ----------------------------------------------------------- *)

let test_bitio_roundtrip_basic () =
  let w = Bitio.Writer.create () in
  Bitio.Writer.put w ~bits:3 5;
  Bitio.Writer.put_bool w true;
  Bitio.Writer.put w ~bits:16 0xbeef;
  Bitio.Writer.put w ~bits:32 0x12345678;
  check int "byte length" 7 (String.length (Bitio.Writer.contents w));
  let r = Bitio.Reader.create (Bitio.Writer.contents w) in
  check int "3 bits" 5 (Bitio.Reader.get r ~bits:3);
  check bool "bool" true (Bitio.Reader.get_bool r);
  check int "16 bits" 0xbeef (Bitio.Reader.get r ~bits:16);
  check int "32 bits" 0x12345678 (Bitio.Reader.get r ~bits:32)

let test_bitio_out_of_bits () =
  let r = Bitio.Reader.create "" in
  Alcotest.check_raises "empty" Bitio.Reader.Out_of_bits (fun () ->
      ignore (Bitio.Reader.get r ~bits:1))

let test_bitio_invalid_width () =
  let w = Bitio.Writer.create () in
  Alcotest.check_raises "too wide"
    (Invalid_argument "Bitio.Writer.put: bits") (fun () ->
      Bitio.Writer.put w ~bits:63 1)

let test_bitio_contents_idempotent () =
  let w = Bitio.Writer.create () in
  Bitio.Writer.put w ~bits:5 0b10110;
  let first = Bitio.Writer.contents w in
  let second = Bitio.Writer.contents w in
  check bool "two snapshots identical" true (first = second);
  (* Writing after a snapshot continues from the un-padded position. *)
  Bitio.Writer.put w ~bits:3 0b011;
  let r = Bitio.Reader.create (Bitio.Writer.contents w) in
  check int "first field" 0b10110 (Bitio.Reader.get r ~bits:5);
  check int "field written after contents" 0b011 (Bitio.Reader.get r ~bits:3)

let bitio_contents_pure_property =
  let field = QCheck.(pair (QCheck.int_range 1 62) (int_bound max_int)) in
  QCheck.Test.make
    ~name:"bitio: contents is a pure snapshot (double call, put after)"
    ~count:100
    QCheck.(
      pair
        (list_of_size (Gen.int_range 1 32) field)
        (list_of_size (Gen.int_range 1 32) field))
    (fun (before, after) ->
      let reference = Bitio.Writer.create () in
      List.iter
        (fun (bits, value) -> Bitio.Writer.put reference ~bits value)
        (before @ after);
      let w = Bitio.Writer.create () in
      List.iter (fun (bits, value) -> Bitio.Writer.put w ~bits value) before;
      let snapshot = Bitio.Writer.contents w in
      let again = Bitio.Writer.contents w in
      List.iter (fun (bits, value) -> Bitio.Writer.put w ~bits value) after;
      snapshot = again
      && Bitio.Writer.contents w = Bitio.Writer.contents reference)

let bitio_roundtrip_property =
  let field = QCheck.(pair (QCheck.int_range 1 62) (int_bound max_int)) in
  QCheck.Test.make ~name:"bitio: arbitrary field sequences round-trip"
    ~count:100
    QCheck.(list_of_size (Gen.int_range 1 64) field)
    (fun fields ->
      let w = Bitio.Writer.create () in
      List.iter
        (fun (bits, value) -> Bitio.Writer.put w ~bits value)
        fields;
      let r = Bitio.Reader.create (Bitio.Writer.contents w) in
      List.for_all
        (fun (bits, value) ->
          let masked = value land ((1 lsl bits) - 1) in
          Bitio.Reader.get r ~bits = masked)
        fields)

(* A bit-serial reference reader over the whole stream: a field the
   stream cannot finish consumes what is left and raises
   [Out_of_bits]. Positions are absolute, so it also stands for chunked
   readers. *)
module Serial_reader = struct
  type t = { data : string; mutable pos : int }

  let create data = { data; pos = 0 }

  let get r ~bits =
    let rec loop acc remaining =
      if remaining = 0 then acc
      else if r.pos >= 8 * String.length r.data then
        raise Bitio.Reader.Out_of_bits
      else begin
        let bit =
          (Char.code r.data.[r.pos / 8] lsr (7 - (r.pos mod 8))) land 1
        in
        r.pos <- r.pos + 1;
        loop ((acc lsl 1) lor bit) (remaining - 1)
      end
    in
    loop 0 bits

  let bits_consumed r = r.pos
  let byte_position r = r.pos / 8
end

let chunked_reader data ~chunk =
  let at = ref 0 in
  Bitio.Reader.of_refill (fun () ->
      let n = min chunk (String.length data - !at) in
      let piece = String.sub data !at n in
      at := !at + n;
      piece)

(* Same value or the same [Out_of_bits] for every field, and the same
   byte position after each get; in-memory readers also agree on the
   bits left. Widths run past the end of the stream on purpose. *)
let reader_agrees ~exact reader data widths =
  let reference = Serial_reader.create data in
  let same_position () =
    Bitio.Reader.byte_position reader
       = Serial_reader.byte_position reference
    && ((not exact)
       || Bitio.Reader.bits_remaining reader
          = (8 * String.length data) - Serial_reader.bits_consumed reference)
  in
  let rec go = function
    | [] -> true
    | bits :: rest -> (
        let got =
          match Bitio.Reader.get reader ~bits with
          | v -> Some v
          | exception Bitio.Reader.Out_of_bits -> None
        in
        let want =
          match Serial_reader.get reference ~bits with
          | v -> Some v
          | exception Bitio.Reader.Out_of_bits -> None
        in
        got = want && same_position ()
        && match got with None -> true | Some _ -> go rest)
  in
  go widths

let bitio_reader_matches_serial_property =
  let input =
    QCheck.make
      ~print:(fun (data, chunk, (lead, widths)) ->
        Printf.sprintf "%d bytes %S, chunk %d, lead-in %d, widths [%s]"
          (String.length data) data chunk lead
          (String.concat "; " (List.map string_of_int widths)))
      QCheck.Gen.(
        quad
          (string_size ~gen:char (int_range 0 40))
          (int_range 1 17) (int_range 0 7)
          (list_size (int_range 1 40) (int_range 1 62))
        |> map (fun (data, chunk, lead, widths) ->
               (data, chunk, (lead, widths))))
  in
  QCheck.Test.make
    ~name:"bitio: get agrees with a bit-serial reader, in memory and chunked"
    ~count:300 input
    (fun (data, chunk, (lead, widths)) ->
      (* A lead-in field puts the first width at every bit offset. *)
      let widths = if lead = 0 then widths else lead :: widths in
      reader_agrees ~exact:true (Bitio.Reader.create data) data widths
      && reader_agrees ~exact:false (chunked_reader data ~chunk) data widths)

(* --- records ------------------------------------------------------------ *)

let sample_records =
  [| { Record.pc = 0; wrong_path = false; dest = 1; src1 = 2; src2 = 3;
       payload = Record.Other { op_class = Record.Alu } };
     { Record.pc = 1; wrong_path = false; dest = 4; src1 = 1; src2 = 0;
       payload = Record.Memory { is_load = true; address = 0x1234 } };
     { Record.pc = 2; wrong_path = false; dest = 0; src1 = 4; src2 = 5;
       payload = Record.Memory { is_load = false; address = 0x1238 } };
     { Record.pc = 3; wrong_path = false; dest = 0; src1 = 1; src2 = 4;
       payload =
         Record.Branch
           { kind = Resim_isa.Opcode.Cond; taken = true; target = 0 } };
     { Record.pc = 0; wrong_path = true; dest = 6; src1 = 1; src2 = 1;
       payload = Record.Other { op_class = Record.Mult } };
     { Record.pc = 1; wrong_path = true; dest = 7; src1 = 6; src2 = 2;
       payload = Record.Other { op_class = Record.Divide } } |]

let test_record_predicates () =
  check bool "branch" true (Record.is_branch sample_records.(3));
  check bool "load" true (Record.is_load sample_records.(1));
  check bool "store" true (Record.is_store sample_records.(2));
  check bool "memory" true (Record.is_memory sample_records.(2));
  check bool "alu not memory" false (Record.is_memory sample_records.(0))

let test_record_of_observation () =
  let program =
    Resim_isa.Asm.(
      assemble
        [ li t0 0x100; lw t1 4 t0; sw t1 8 t0; mul t2 t1 t1;
          beq t2 t2 "end"; label "end"; halt ])
  in
  let m = Resim_isa.Machine.create ~program () in
  let obs () =
    match Resim_isa.Interpreter.step m program with
    | Resim_isa.Interpreter.Stepped obs -> obs
    | Resim_isa.Interpreter.Halted_ -> Alcotest.fail "unexpected halt"
  in
  let li = Record.of_observation ~wrong_path:false (obs ()) in
  check bool "li is Other/Alu" true
    (li.payload = Record.Other { op_class = Record.Alu });
  let lw = Record.of_observation ~wrong_path:false (obs ()) in
  check bool "lw is load" true (Record.is_load lw);
  (match lw.payload with
  | Record.Memory { address; _ } -> check int "lw address" 0x104 address
  | Record.Branch _ | Record.Other _ -> Alcotest.fail "expected memory");
  let sw = Record.of_observation ~wrong_path:true (obs ()) in
  check bool "sw is store" true (Record.is_store sw);
  check bool "tag bit" true sw.wrong_path;
  let mul = Record.of_observation ~wrong_path:false (obs ()) in
  check bool "mul class" true
    (mul.payload = Record.Other { op_class = Record.Mult });
  let beq = Record.of_observation ~wrong_path:false (obs ()) in
  match beq.payload with
  | Record.Branch { kind; taken; target } ->
      check bool "cond kind" true (kind = Resim_isa.Opcode.Cond);
      check bool "taken" true taken;
      check int "target" 5 target
  | Record.Memory _ | Record.Other _ -> Alcotest.fail "expected branch"

(* [r0] is never a dependency: an [r0] destination or source encodes as
   0 (none), and a missing or [r0] first source moves the second one
   up. *)
let test_record_r0_registers () =
  let open Resim_isa in
  let record ?dest ?src1 ?src2 () =
    Record.of_observation ~wrong_path:false
      { Interpreter.index = 0;
        instr = { Instruction.op = Opcode.Add; dest; src1; src2; imm = 0 };
        next_index = 1;
        effective_address = None;
        control = None }
  in
  let fields (r : Record.t) = (r.dest, r.src1, r.src2) in
  let triple = Alcotest.(triple int int int) in
  check triple "r0 dest and first source dropped" (0, 3, 0)
    (fields (record ~dest:Reg.zero ~src1:Reg.zero ~src2:(Reg.r 3) ()));
  check triple "missing first source" (4, 5, 0)
    (fields (record ~dest:(Reg.r 4) ~src2:(Reg.r 5) ()));
  check triple "r0 second source dropped" (0, 3, 0)
    (fields (record ~src1:(Reg.r 3) ~src2:Reg.zero ()));
  check triple "real registers kept in order" (4, 6, 7)
    (fields (record ~dest:(Reg.r 4) ~src1:(Reg.r 6) ~src2:(Reg.r 7) ()))

(* --- codec --------------------------------------------------------------- *)

let decode data =
  match Codec.decode_result data with
  | Ok decoded -> decoded
  | Error error -> Alcotest.fail (Codec.error_to_string error)

(* The structured error a malformed stream decodes to. *)
let decode_error data =
  match Codec.decode_result data with
  | Ok _ -> Alcotest.fail "malformed stream decoded"
  | Error error -> error

let test_codec_roundtrip_fixed () =
  let encoded = Codec.encode ~format:Codec.Fixed sample_records in
  let decoded, format = decode encoded in
  check bool "format" true (format = Codec.Fixed);
  check int "count" (Array.length sample_records) (Array.length decoded);
  Array.iteri
    (fun i record ->
      check bool (Printf.sprintf "record %d" i) true
        (Record.equal record decoded.(i)))
    sample_records

let test_codec_roundtrip_compact () =
  let encoded = Codec.encode ~format:Codec.Compact sample_records in
  let decoded, format = decode encoded in
  check bool "format" true (format = Codec.Compact);
  check bool "all equal" true
    (Array.for_all2 Record.equal sample_records decoded)

let test_codec_empty () =
  let encoded = Codec.encode [||] in
  let decoded, _format = decode encoded in
  check int "empty" 0 (Array.length decoded);
  check bool "zero bits per instr" true
    (Codec.bits_per_instruction [||] = 0.0)

let test_codec_corrupt () =
  check Alcotest.string "bad magic" "bad magic"
    (decode_error "XXXXxxxxxxxxxxxxxx").reason;
  check Alcotest.string "truncated header" "truncated header (2 of 14 bytes)"
    (decode_error "RS").reason

let test_codec_truncated_payload () =
  let encoded = Codec.encode sample_records in
  let truncated = String.sub encoded 0 (String.length encoded - 2) in
  check Alcotest.string "truncated payload" "RSM-T002"
    (decode_error truncated).error_code

let test_codec_file_roundtrip () =
  let path = Filename.temp_file "resim_test" ".trace" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      Codec.write_file ~format:Codec.Compact path sample_records;
      let decoded, format = Codec.read_file path in
      check bool "file format" true (format = Codec.Compact);
      check bool "file roundtrip" true
        (Array.for_all2 Record.equal sample_records decoded))

let test_compact_smaller_on_locality () =
  (* Sequential memory accesses compress well under delta encoding. *)
  let records =
    Array.init 500 (fun i ->
        { Record.pc = i; wrong_path = false; dest = 1; src1 = 2; src2 = 0;
          payload = Record.Memory { is_load = true; address = 4096 + (4 * i) }
        })
  in
  let fixed = Codec.bits_per_instruction ~format:Codec.Fixed records in
  let compact = Codec.bits_per_instruction ~format:Codec.Compact records in
  check bool "compact is smaller" true (compact < fixed)

(* Generator for random records with mostly-sequential pcs. *)
let record_gen =
  let open QCheck.Gen in
  let payload_gen pc =
    frequency
      [ (5, map (fun c ->
                let op_class =
                  match c mod 3 with
                  | 0 -> Record.Alu
                  | 1 -> Record.Mult
                  | _ -> Record.Divide
                in
                Record.Other { op_class })
             small_nat);
        (3, map2 (fun is_load address ->
                 Record.Memory { is_load; address })
              bool (int_bound 0xffff_ffff));
        (2, map2 (fun taken target ->
                 Record.Branch { kind = Resim_isa.Opcode.Cond; taken;
                                 target = target mod 1_000_000 })
              bool (int_bound ((1 lsl 29) - 1))) ]
    |> fun g -> g >>= fun payload -> return (pc, payload)
  in
  let rec build n pc acc =
    if n = 0 then return (List.rev acc)
    else
      payload_gen pc >>= fun (pc, payload) ->
      map2 (fun regs jump ->
          let dest = regs land 31 in
          let src1 = (regs lsr 5) land 31 in
          let src2 = (regs lsr 10) land 31 in
          ({ Record.pc; wrong_path = regs land 32768 <> 0; dest; src1; src2;
             payload },
           jump))
        (int_bound 65535) (int_bound 99)
      >>= fun (record, jump) ->
      let next_pc = if jump < 80 then pc + 1 else (pc + jump) mod 1_000_000 in
      build (n - 1) next_pc (record :: acc)
  in
  int_range 1 200 >>= fun n ->
  map Array.of_list (build n 0 [])

let codec_roundtrip_property format name =
  QCheck.Test.make ~name ~count:60
    (QCheck.make record_gen)
    (fun records ->
      let decoded, decoded_format = decode (Codec.encode ~format records) in
      decoded_format = format
      && Array.length decoded = Array.length records
      && Array.for_all2 Record.equal records decoded)

let codec_encode_deterministic_property =
  QCheck.Test.make
    ~name:"codec: encoding the same records twice is byte-identical"
    ~count:40
    (QCheck.make record_gen)
    (fun records ->
      Codec.encode ~format:Codec.Fixed records
      = Codec.encode ~format:Codec.Fixed records
      && Codec.encode ~format:Codec.Compact records
         = Codec.encode ~format:Codec.Compact records)

(* Deltas drawn per selector: |delta| within the 8-, 16- or 24-bit
   zig-zag range or past it (the absolute escape), either sign. *)
let selector_delta_gen =
  let open QCheck.Gen in
  let magnitude =
    oneof
      [ int_range 0 127; int_range 128 32_767; int_range 32_768 8_388_607;
        int_range 8_388_608 ((1 lsl 28) - 1) ]
  in
  map2 (fun m negative -> if negative then -m else m) magnitude bool

let clamp ~bits v = max 0 (min v ((1 lsl bits) - 1))

(* Records whose PCs, addresses and branch targets move by
   [selector_delta_gen], so both formats see sequential and jumping PCs,
   negative deltas and every Compact selector. *)
let selector_records_gen =
  let open QCheck.Gen in
  let kind =
    oneofl
      Resim_isa.Opcode.[ Cond; Jump; Call; Ret; Indirect ]
  in
  let op_class = oneofl Record.[ Alu; Mult; Divide ] in
  let step (pc, addr) =
    bool >>= fun sequential ->
    selector_delta_gen >>= fun pc_delta ->
    selector_delta_gen >>= fun addr_delta ->
    selector_delta_gen >>= fun target_delta ->
    int_range 0 2 >>= fun shape ->
    kind >>= fun kind ->
    op_class >>= fun op_class ->
    bool >>= fun flag ->
    int_bound 32767 >>= fun regs ->
    let pc = if sequential then pc + 1 else clamp ~bits:30 (pc + 1 + pc_delta) in
    let address = clamp ~bits:32 (addr + addr_delta) in
    let payload =
      match shape with
      | 0 -> Record.Other { op_class }
      | 1 -> Record.Memory { is_load = flag; address }
      | _ ->
          Record.Branch
            { kind; taken = flag; target = clamp ~bits:30 (pc + target_delta) }
    in
    let record =
      { Record.pc; wrong_path = regs land 1 = 1; dest = (regs lsr 1) land 31;
        src1 = (regs lsr 6) land 31; src2 = (regs lsr 11) land 31; payload }
    in
    return (record, (pc, if shape = 1 then address else addr))
  in
  let rec build n at acc =
    if n = 0 then return (Array.of_list (List.rev acc))
    else step at >>= fun (record, at) -> build (n - 1) at (record :: acc)
  in
  int_range 0 120 >>= fun n ->
  int_bound ((1 lsl 30) - 1) >>= fun pc ->
  build n (pc, 0) []

(* The exact bit length of [Codec.encode]'s payload: decoding follows
   the encoder's selectors field by field, so what is left once every
   record is decoded is the final byte's zero padding. *)
let real_payload_bits ~format records =
  let encoded = Codec.encode ~format records in
  let cursor =
    match Codec.Cursor.of_string_result encoded with
    | Ok cursor -> cursor
    | Error error -> Alcotest.fail (Codec.error_to_string error)
  in
  while Codec.Cursor.has_next cursor do
    ignore (Codec.Cursor.next_result cursor)
  done;
  (8 * (String.length encoded - Codec.header_length))
  - Codec.Cursor.bits_remaining cursor

let encoded_bits_matches_encoding_property =
  QCheck.Test.make
    ~name:"codec: encoded_bits per instruction match the real encoding"
    ~count:300
    (QCheck.make
       ~print:(fun records ->
         String.concat "\n"
           (Array.to_list (Array.map (Format.asprintf "%a" Record.pp) records)))
       selector_records_gen)
    (fun records ->
      List.for_all
        (fun format ->
          let n = Array.length records in
          Codec.bits_per_instruction ~format records
          =
          if n = 0 then 0.0
          else float_of_int (real_payload_bits ~format records) /. float_of_int n)
        [ Codec.Fixed; Codec.Compact ])

(* --- profile ---------------------------------------------------------- *)

let profile_records =
  Array.concat
    [ Array.init 20 (fun i ->
          { Record.pc = 100; wrong_path = false; dest = 0; src1 = 1; src2 = 2;
            payload =
              Record.Branch
                { kind = Resim_isa.Opcode.Cond; taken = i mod 4 <> 0;
                  target = 5 } });
      Array.init 5 (fun _ ->
          { Record.pc = 200; wrong_path = false; dest = 0; src1 = 1; src2 = 2;
            payload =
              Record.Branch
                { kind = Resim_isa.Opcode.Cond; taken = true; target = 9 } });
      Array.init 8 (fun i ->
          { Record.pc = 300 + i; wrong_path = false; dest = 1; src1 = 2;
            src2 = 0;
            payload = Record.Memory { is_load = true; address = 0x5000 } });
      [| { Record.pc = 400; wrong_path = true; dest = 0; src1 = 1; src2 = 2;
           payload =
             Record.Branch
               { kind = Resim_isa.Opcode.Cond; taken = true; target = 0 } } |];
      Array.init 7 (fun i ->
          { Record.pc = 500 + i; wrong_path = false; dest = 3; src1 = 4;
            src2 = 5; payload = Record.Other { op_class = Record.Alu } }) ]

let test_profile_hot_branches () =
  let sites = Profile.hot_branches ~top:2 profile_records in
  match sites with
  | [ first; second ] ->
      check int "hottest site" 100 first.Profile.pc;
      check int "executions" 20 first.executions;
      check bool "taken rate" true
        (abs_float (first.taken_rate -. 0.75) < 1e-9);
      check int "second site" 200 second.Profile.pc;
      check int "wrong path excluded" 5 second.executions
  | _ -> Alcotest.fail "expected two sites"

let test_profile_pages_and_mix () =
  let pages = Profile.hot_pages ~top:3 profile_records in
  check bool "one hot page" true
    (match pages with [ (0x5000, 8) ] -> true | _ -> false);
  let mix = Profile.instruction_mix profile_records in
  let total =
    mix.Profile.alu +. mix.mult +. mix.divide +. mix.load +. mix.store
    +. mix.branch
  in
  check bool "fractions sum to 1" true (abs_float (total -. 1.0) < 1e-9);
  check bool "load fraction" true
    (abs_float (mix.Profile.load -. (8.0 /. 40.0)) < 1e-9);
  check int "footprint one page" 4096
    (Profile.memory_footprint_bytes profile_records)

let test_profile_page_validation () =
  Alcotest.check_raises "non power of two"
    (Invalid_argument "Profile: page_bytes must be a power of two")
    (fun () -> ignore (Profile.hot_pages ~page_bytes:3000 profile_records))

(* --- summary ---------------------------------------------------------- *)

let test_summary_counts () =
  let summary = Summary.of_records sample_records in
  check int "total" 6 summary.total;
  check int "wrong path" 2 summary.wrong_path;
  check int "correct" 4 summary.correct_path;
  check int "branches" 1 summary.branches;
  check int "cond" 1 summary.cond_branches;
  check int "taken" 1 summary.taken_branches;
  check int "loads" 1 summary.loads;
  check int "stores" 1 summary.stores;
  check int "mults" 1 summary.mults;
  check int "divides" 1 summary.divides;
  check bool "fraction" true
    (abs_float (Summary.wrong_path_fraction summary -. (2.0 /. 6.0)) < 1e-9)

let suite =
  [ ("trace:bitio",
     [ Alcotest.test_case "roundtrip" `Quick test_bitio_roundtrip_basic;
       Alcotest.test_case "out of bits" `Quick test_bitio_out_of_bits;
       Alcotest.test_case "invalid width" `Quick test_bitio_invalid_width;
       Alcotest.test_case "contents is idempotent" `Quick
         test_bitio_contents_idempotent;
       QCheck_alcotest.to_alcotest bitio_roundtrip_property;
       QCheck_alcotest.to_alcotest bitio_contents_pure_property;
       QCheck_alcotest.to_alcotest bitio_reader_matches_serial_property ]);
    ("trace:record",
     [ Alcotest.test_case "predicates" `Quick test_record_predicates;
       Alcotest.test_case "of_observation" `Quick test_record_of_observation;
       Alcotest.test_case "r0 sources/dest" `Quick test_record_r0_registers
     ]);
    ("trace:codec",
     [ Alcotest.test_case "fixed roundtrip" `Quick test_codec_roundtrip_fixed;
       Alcotest.test_case "compact roundtrip" `Quick
         test_codec_roundtrip_compact;
       Alcotest.test_case "empty" `Quick test_codec_empty;
       Alcotest.test_case "corrupt input" `Quick test_codec_corrupt;
       Alcotest.test_case "truncated payload" `Quick
         test_codec_truncated_payload;
       Alcotest.test_case "file roundtrip" `Quick test_codec_file_roundtrip;
       Alcotest.test_case "compact beats fixed on locality" `Quick
         test_compact_smaller_on_locality;
       QCheck_alcotest.to_alcotest
         (codec_roundtrip_property Codec.Fixed
            "codec: fixed encoding round-trips random traces");
       QCheck_alcotest.to_alcotest
         (codec_roundtrip_property Codec.Compact
            "codec: compact encoding round-trips random traces");
       QCheck_alcotest.to_alcotest codec_encode_deterministic_property;
       QCheck_alcotest.to_alcotest encoded_bits_matches_encoding_property ]);
    ("trace:profile",
     [ Alcotest.test_case "hot branches" `Quick test_profile_hot_branches;
       Alcotest.test_case "pages and mix" `Quick test_profile_pages_and_mix;
       Alcotest.test_case "validation" `Quick test_profile_page_validation ]);
    ("trace:summary",
     [ Alcotest.test_case "counts" `Quick test_summary_counts ]) ]
