module Record = Resim_trace.Record
module Codec = Resim_trace.Codec

type report = {
  diagnostics : Diagnostic.t list;
  records_checked : int;
  wrong_path_records : int;
  wrong_path_blocks : int;
  format : Codec.format option;
}

(* 4096 — far above any generator's wrong-path block limit (the
   reference generator stops at ROB + IFQ entries), yet small enough
   to catch a tag bit stuck on. *)
let default_max_run = 4096

(* Streaming lint state: one record of lookbehind plus the running
   wrong-path block length — O(1) space regardless of trace size. *)
type state = {
  max_run : int;
  mutable out : Diagnostic.t list;  (* reversed *)
  mutable prev : Record.t option;
  mutable run : int;       (* length of the current tagged run *)
  mutable checked : int;
  mutable wrong : int;
  mutable blocks : int;
}

let fresh_state ~max_run =
  { max_run; out = []; prev = None; run = 0; checked = 0; wrong = 0;
    blocks = 0 }

let record_subject index = Printf.sprintf "record %d" index

let err st ~code ~index ?hint fmt =
  Printf.ksprintf
    (fun message ->
      st.out <-
        Diagnostic.error ~code ~subject:(record_subject index) ?hint message
        :: st.out)
    fmt

let warn st ~code ~index fmt =
  Printf.ksprintf
    (fun message ->
      st.out <-
        Diagnostic.warning ~code ~subject:(record_subject index) message
        :: st.out)
    fmt

let reg_limit = Resim_isa.Reg.count - 1

(* RSM-T008: fields a well-formed generator can never produce. *)
let check_payload st ~index (r : Record.t) =
  if r.pc < 0 then
    err st ~code:"RSM-T008" ~index "negative pc %d" r.pc;
  let reg name value =
    if value < 0 || value > reg_limit then
      err st ~code:"RSM-T008" ~index "%s register %d is outside 0..%d"
        name value reg_limit
  in
  reg "dest" r.dest;
  reg "src1" r.src1;
  reg "src2" r.src2;
  match r.payload with
  | Record.Memory { address; _ } ->
      if address < 0 then
        err st ~code:"RSM-T008" ~index "negative memory address %d" address
  | Record.Branch { kind; taken; target } ->
      if target < 0 then
        err st ~code:"RSM-T008" ~index "negative branch target %d" target;
      (match kind with
      | Resim_isa.Opcode.Cond -> ()
      | Resim_isa.Opcode.Jump | Resim_isa.Opcode.Call
      | Resim_isa.Opcode.Ret | Resim_isa.Opcode.Indirect ->
          if not taken then
            err st ~code:"RSM-T008" ~index
              "unconditional branch recorded as not taken")
  | Record.Other _ -> ()

(* The tag-bit protocol of §III: a tagged block models the wrong path
   the front end runs down after a branch the generator's predictor
   mispredicted, so it can start only right after an untagged branch
   record, and it is bounded by the generator's wrong-path limit. *)
let check_tagging st ~index (r : Record.t) =
  if r.Record.wrong_path then begin
    st.wrong <- st.wrong + 1;
    if st.run = 0 then begin
      st.blocks <- st.blocks + 1;
      (match st.prev with
      | None ->
          err st ~code:"RSM-T005" ~index
            ~hint:"a wrong-path block must follow its mispredicted branch"
            "tagged record at the start of the trace"
      | Some prev ->
          if not (Record.is_branch prev) then
            err st ~code:"RSM-T005" ~index
              ~hint:"a wrong-path block must follow its mispredicted branch"
              "wrong-path block starts after a non-branch record"
          else
            (match prev.Record.payload with
            | Record.Branch { kind = Resim_isa.Opcode.Cond; _ } -> ()
            | Record.Branch _ ->
                warn st ~code:"RSM-T006" ~index
                  "wrong-path block follows an unconditional branch \
                   (generators emit blocks only after conditional \
                   mispredictions)"
            | Record.Memory _ | Record.Other _ -> ()))
    end;
    st.run <- st.run + 1;
    if st.run = st.max_run + 1 then
      err st ~code:"RSM-T007" ~index
        ~hint:"the reference generator bounds blocks by ROB + IFQ entries"
        "wrong-path run exceeds %d records (tag bit stuck on?)" st.max_run
  end
  else st.run <- 0

let check_record st (r : Record.t) =
  let index = st.checked in
  check_tagging st ~index r;
  check_payload st ~index r;
  st.prev <- Some r;
  st.checked <- st.checked + 1

let finish st ~format =
  let found = List.rev st.out in
  { diagnostics = Diagnostic.errors found @ Diagnostic.warnings found;
    records_checked = st.checked;
    wrong_path_records = st.wrong;
    wrong_path_blocks = st.blocks;
    format }

let lint_records ?(max_wrong_path_run = default_max_run) records =
  let st = fresh_state ~max_run:max_wrong_path_run in
  Array.iter (check_record st) records;
  finish st ~format:None

let header_report { Codec.error_code; byte_offset; reason } =
  { diagnostics =
      [ Diagnostic.error ~code:error_code ~subject:"header"
          ~hint:"regenerate the trace with resim tracegen"
          (Printf.sprintf "unusable trace stream at byte %d: %s" byte_offset
             reason) ];
    records_checked = 0;
    wrong_path_records = 0;
    wrong_path_blocks = 0;
    format = None }

(* The shared streaming loop: O(1) lint state over any cursor — whole
   in-memory strings and chunked channel cursors alike, so multi-GB
   files lint in constant memory. Byte offsets in diagnostics are
   absolute file offsets on both paths. *)
let lint_cursor ?(max_wrong_path_run = default_max_run) cursor =
  let st = fresh_state ~max_run:max_wrong_path_run in
  let stopped = ref false in
  while (not !stopped) && Codec.Cursor.has_next cursor do
    match Codec.Cursor.next_result cursor with
    | Ok record -> check_record st record
    | Error { Codec.error_code; byte_offset; reason } ->
        (match error_code with
        | "RSM-T002" ->
            err st ~code:"RSM-T002" ~index:st.checked
              ~hint:"the file was truncated after encoding"
              "at byte %d: %s" byte_offset reason
        | _ ->
            err st ~code:error_code ~index:st.checked "at byte %d: %s"
              byte_offset reason);
        stopped := true
  done;
  (* Streamed traces declare no count: the loop above consumed every
     whole byte, so a trailing-data check only applies to counted
     streams. *)
  if (not !stopped) && not (Codec.Cursor.streamed cursor) then begin
    let trailing = Codec.Cursor.trailing_bytes cursor in
    if trailing > 0 then
      warn st ~code:"RSM-T004" ~index:st.checked
        "%d trailing byte(s) after the last declared record" trailing
  end;
  finish st ~format:(Some (Codec.Cursor.format cursor))

let lint_string ?max_wrong_path_run data =
  match Codec.Cursor.of_string_result data with
  | Error error -> header_report error
  | Ok cursor -> lint_cursor ?max_wrong_path_run cursor

let lint_file ?max_wrong_path_run path =
  match open_in_bin path with
  | exception Sys_error reason ->
      header_report { Codec.error_code = "RSM-T009"; byte_offset = 0; reason }
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          match Codec.Cursor.of_channel_result ic with
          | Error error -> header_report error
          | Ok cursor -> lint_cursor ?max_wrong_path_run cursor)

(* Lint a foreign-format trace through its adapter: adapted records run
   the same tag-bit/payload rules, and a malformed line surfaces as its
   RSM-A diagnostic with the file:line:col subject. Streaming — one
   line of lookahead, O(1) lint state. *)
let lint_adapter ?(max_wrong_path_run = default_max_run) adapter =
  let st = fresh_state ~max_run:max_wrong_path_run in
  let stopped = ref false in
  while not !stopped do
    match Resim_trace.Adapter.next_result adapter with
    | Ok (Some record) -> check_record st record
    | Ok None -> stopped := true
    | Error error ->
        st.out <-
          Diagnostic.error ~code:error.Resim_trace.Adapter.code
            ~subject:
              (Printf.sprintf "%s:%d:%d" error.file error.line error.col)
            error.reason
          :: st.out;
        stopped := true
  done;
  finish st ~format:None

let clean report = report.diagnostics = []
