(* Lightweight replay checkpoint.

   The engine is deterministic, so a run truncated by a cycle or
   wall-clock budget can resume exactly by replaying the same trace and
   configuration up to the recorded cycle: (cycle, cursor, counters) is
   enough to both restart and *verify* the restart — after replay the
   cursor and every statistics register must match, or the checkpoint
   belongs to a different trace/configuration. *)

type t = {
  cycle : int64;           (* major cycles completed *)
  cursor : int;            (* trace records consumed *)
  counters : (string * int64) list;  (* Stats.to_assoc snapshot *)
  engine : string option;  (* engine-version/config-hash identity *)
}

let make ?engine ~cycle ~cursor ~counters () =
  { cycle; cursor; counters; engine }

let with_engine engine t = { t with engine = Some engine }

let magic = "RSCP"
let version = 1

let to_string t =
  let b = Buffer.create 256 in
  Buffer.add_string b (Printf.sprintf "%s %d\n" magic version);
  Buffer.add_string b (Printf.sprintf "cycle %Ld\n" t.cycle);
  Buffer.add_string b (Printf.sprintf "cursor %d\n" t.cursor);
  (match t.engine with
  | Some engine -> Buffer.add_string b (Printf.sprintf "engine %s\n" engine)
  | None -> ());
  List.iter
    (fun (name, value) ->
      Buffer.add_string b (Printf.sprintf "counter %s %Ld\n" name value))
    t.counters;
  Buffer.contents b

(* Structured parse errors in the Trace_fault style: a stable RSM-K
   code per malformation class, the 1-based line it was found on (0 for
   whole-document conditions) and a human reason. A malformed
   checkpoint must refuse the resume loudly — the old parser silently
   tolerated duplicate keys (last won) and accepted signed or hex
   numerals a writer never emits. *)

type error = { code : string; line : int; reason : string }

let error_to_string e =
  if e.line = 0 then Printf.sprintf "%s: %s" e.code e.reason
  else Printf.sprintf "%s: line %d: %s" e.code e.line e.reason

exception Bad of error

let fail ~code ~line reason = raise (Bad { code; line; reason })

(* The writer emits unsigned decimal only, so the reader accepts
   exactly that: no sign, no hex/octal/binary prefixes, no
   underscores. [of_string_opt] still rejects overflow. *)
let strict_decimal raw =
  if
    String.length raw > 0
    && String.for_all (fun c -> c >= '0' && c <= '9') raw
  then Int64.of_string_opt raw
  else None

let strict_decimal_int raw =
  match strict_decimal raw with
  | Some v when Int64.compare v (Int64.of_int max_int) <= 0 ->
      Some (Int64.to_int v)
  | Some _ | None -> None

let of_string data =
  let parse () =
    let numbered = ref [] in
    List.iteri
      (fun i line ->
        if String.length line > 0 then numbered := (i + 1, line) :: !numbered)
      (String.split_on_char '\n' data);
    match List.rev !numbered with
    | [] -> fail ~code:"RSM-K001" ~line:0 "empty checkpoint"
    | (header_line, header) :: rest ->
        let expected = Printf.sprintf "%s %d" magic version in
        if not (String.equal header expected) then
          fail ~code:"RSM-K002" ~line:header_line
            (Printf.sprintf "bad header %S (expected %S)" header expected);
        let cycle = ref None in
        let cursor = ref None in
        let engine = ref None in
        let counters = ref [] in
        let seen_counters = Hashtbl.create 16 in
        List.iter
          (fun (line, text) ->
            match String.split_on_char ' ' text with
            | [ "cycle"; v ] -> (
                if Option.is_some !cycle then
                  fail ~code:"RSM-K005" ~line "duplicate key cycle";
                match strict_decimal v with
                | Some v -> cycle := Some v
                | None ->
                    fail ~code:"RSM-K004" ~line
                      (Printf.sprintf "unparseable cycle value %S" v))
            | [ "cursor"; v ] -> (
                if Option.is_some !cursor then
                  fail ~code:"RSM-K005" ~line "duplicate key cursor";
                match strict_decimal_int v with
                | Some v -> cursor := Some v
                | None ->
                    fail ~code:"RSM-K004" ~line
                      (Printf.sprintf "unparseable cursor value %S" v))
            | [ "engine"; v ] ->
                if Option.is_some !engine then
                  fail ~code:"RSM-K005" ~line "duplicate key engine";
                if String.length v = 0 then
                  fail ~code:"RSM-K004" ~line "empty engine identity";
                engine := Some v
            | [ "counter"; name; v ] -> (
                if Hashtbl.mem seen_counters name then
                  fail ~code:"RSM-K005" ~line
                    (Printf.sprintf "duplicate counter %s" name);
                Hashtbl.add seen_counters name ();
                match strict_decimal v with
                | Some v -> counters := (name, v) :: !counters
                | None ->
                    fail ~code:"RSM-K004" ~line
                      (Printf.sprintf "unparseable counter %s value %S"
                         name v))
            | _ ->
                fail ~code:"RSM-K003" ~line
                  (Printf.sprintf "malformed line %S" text))
          rest;
        let cycle =
          match !cycle with
          | Some cycle -> cycle
          | None -> fail ~code:"RSM-K006" ~line:0 "missing required key cycle"
        in
        let cursor =
          match !cursor with
          | Some cursor -> cursor
          | None ->
              fail ~code:"RSM-K006" ~line:0 "missing required key cursor"
        in
        { cycle; cursor; counters = List.rev !counters; engine = !engine }
  in
  match parse () with
  | checkpoint -> Ok checkpoint
  | exception Bad error -> Error error

(* RSM-K007: engine-identity mismatch. A handle stamped by one engine
   build/configuration must not seed a verification replay on another —
   the replay would "verify" against the wrong machine. Handles without
   a stamp (legacy, or hand-built in tests) still rely on the replay
   verification alone. *)
let verify_engine ~expected t =
  match t.engine with
  | None -> Ok ()
  | Some engine when String.equal engine expected -> Ok ()
  | Some engine ->
      Error
        { code = "RSM-K007";
          line = 0;
          reason =
            Printf.sprintf
              "engine identity mismatch: checkpoint %s, this build %s" engine
              expected }

(* The flush inside the protected body raises a failed write (a full
   disk) as [Sys_error]: a checkpoint fits in the channel buffer, so
   otherwise only [close_out_noerr] would write it, and swallow the
   error. *)
let save path t =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      (* resim-lint: allow — writes to an explicit file channel, not the console *)
      output_string oc (to_string t);
      flush oc)

let load path =
  match open_in_bin path with
  | exception Sys_error message ->
      Error { code = "RSM-K000"; line = 0; reason = message }
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> of_string (really_input_string ic (in_channel_length ic)))
