module Engine = Resim_core.Engine

type report = {
  diagnostics : Diagnostic.t list;
  lines_checked : int;
  events : (string * int) list;
}

(* ------------------------------------------------------------------ *)
(* Minimal flat-object JSON parser: exactly the grammar the Obs
   emitter produces — one object per line, integer / plain-string /
   boolean values, no nesting, no escapes, no whitespace.              *)

type value = Int of int64 | Str of string | Bool of bool

exception Bad

let parse_object line =
  let n = String.length line in
  let pos = ref 0 in
  let expect c =
    if !pos < n && line.[!pos] = c then incr pos else raise Bad
  in
  let parse_string () =
    expect '"';
    let start = !pos in
    while !pos < n && line.[!pos] <> '"' do
      if line.[!pos] = '\\' then raise Bad;
      incr pos
    done;
    if !pos >= n then raise Bad;
    let s = String.sub line start (!pos - start) in
    incr pos;
    s
  in
  let literal word value =
    let len = String.length word in
    if !pos + len <= n && String.sub line !pos len = word then begin
      pos := !pos + len;
      value
    end
    else raise Bad
  in
  let parse_value () =
    if !pos >= n then raise Bad
    else
      match line.[!pos] with
      | '"' -> Str (parse_string ())
      | 't' -> literal "true" (Bool true)
      | 'f' -> literal "false" (Bool false)
      | '-' | '0' .. '9' ->
          let start = !pos in
          if line.[!pos] = '-' then incr pos;
          let digits = !pos in
          while !pos < n && line.[!pos] >= '0' && line.[!pos] <= '9' do
            incr pos
          done;
          if !pos = digits then raise Bad;
          (match Int64.of_string_opt (String.sub line start (!pos - start)) with
          | Some v -> Int v
          | None -> raise Bad)
      | _ -> raise Bad
  in
  expect '{';
  let fields = ref [] in
  if !pos < n && line.[!pos] = '}' then incr pos
  else begin
    let continue = ref true in
    while !continue do
      let key = parse_string () in
      expect ':';
      let value = parse_value () in
      fields := (key, value) :: !fields;
      if !pos < n && line.[!pos] = ',' then incr pos
      else begin
        expect '}';
        continue := false
      end
    done
  end;
  if !pos <> n then raise Bad;
  List.rev !fields

(* ------------------------------------------------------------------ *)
(* Schema. *)

let stall_reasons =
  List.map Engine.stall_reason_name Engine.all_stall_reasons

(* kind -> required (field, type check) beyond "c"/"e"; optional wp is
   allowed on F and D. *)
let is_int = function Int v -> Int64.compare v 0L >= 0 | _ -> false
let is_bool = function Bool _ -> true | _ -> false
let is_reason = function Str s -> List.mem s stall_reasons | _ -> false

let schema =
  [ ("F", ([ ("pc", is_int) ], [ "wp" ]));
    ("D", ([ ("id", is_int); ("pc", is_int) ], [ "wp" ]));
    ("I", ([ ("id", is_int) ], []));
    ("W", ([ ("id", is_int) ], []));
    ("C", ([ ("id", is_int) ], []));
    ("X", ([ ("id", is_int) ], []));
    ("FL", ([], []));
    ("S", ([ ("r", is_reason) ], [])) ]

let lint_string stream =
  let diagnostics = ref [] in
  let add d = diagnostics := d :: !diagnostics in
  let events = ref [] in
  let count kind =
    if List.mem_assoc kind !events then
      events :=
        List.map
          (fun (k, c) -> if String.equal k kind then (k, c + 1) else (k, c))
          !events
    else events := !events @ [ (kind, 1) ]
  in
  let last_cycle = ref Int64.min_int in
  let lines = String.split_on_char '\n' stream in
  let checked = ref 0 in
  List.iteri
    (fun i line ->
      (* A trailing newline leaves one final empty chunk; skip it. *)
      if not (String.equal line "") then begin
        incr checked;
        let subject = Printf.sprintf "line %d" (i + 1) in
        match parse_object line with
        | exception Bad ->
            add
              (Diagnostic.error ~code:"RSM-P001" ~subject
                 "not a flat JSON object in pipetrace form")
        | fields -> (
            (match List.assoc_opt "c" fields with
            | Some (Int v) when Int64.compare v 0L >= 0 ->
                if Int64.compare v !last_cycle < 0 then
                  add
                    (Diagnostic.error ~code:"RSM-P004" ~subject
                       (Printf.sprintf
                          "cycle went backwards: %Ld after %Ld" v !last_cycle));
                last_cycle := v
            | Some _ | None ->
                add
                  (Diagnostic.error ~code:"RSM-P003" ~subject
                     "missing or non-integer \"c\" (cycle)"));
            match List.assoc_opt "e" fields with
            | Some (Str kind) -> (
                match List.assoc_opt kind schema with
                | None ->
                    add
                      (Diagnostic.error ~code:"RSM-P002" ~subject
                         (Printf.sprintf "unknown event kind %S" kind))
                | Some (required, optional) ->
                    count kind;
                    List.iter
                      (fun (name, check) ->
                        match List.assoc_opt name fields with
                        | Some v when check v -> ()
                        | Some _ ->
                            add
                              (Diagnostic.error ~code:"RSM-P003" ~subject
                                 (Printf.sprintf
                                    "field %S has the wrong type or value \
                                     for kind %S"
                                    name kind))
                        | None ->
                            add
                              (Diagnostic.error ~code:"RSM-P003" ~subject
                                 (Printf.sprintf
                                    "kind %S is missing field %S" kind name)))
                      required;
                    List.iter
                      (fun (name, value) ->
                        if
                          (not (String.equal name "c"))
                          && (not (String.equal name "e"))
                          && not (List.mem_assoc name required)
                        then
                          if List.mem name optional then begin
                            if not (is_bool value) then
                              add
                                (Diagnostic.error ~code:"RSM-P003" ~subject
                                   (Printf.sprintf
                                      "field %S must be a boolean" name))
                          end
                          else
                            add
                              (Diagnostic.warning ~code:"RSM-P003" ~subject
                                 (Printf.sprintf
                                    "unknown field %S for kind %S" name kind)))
                      fields)
            | Some _ | None ->
                add
                  (Diagnostic.error ~code:"RSM-P002" ~subject
                     "missing or non-string \"e\" (event kind)"))
      end)
    lines;
  { diagnostics = List.rev !diagnostics;
    lines_checked = !checked;
    events = !events }

let lint_file path =
  let channel = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr channel)
    (fun () ->
      lint_string (really_input_string channel (in_channel_length channel)))
