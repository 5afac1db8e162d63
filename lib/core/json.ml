(* The one JSON builder of the tree: every metrics document and wire
   message is a [value] printed by [to_string]. Free-form strings —
   labels, kernel names, fault reasons — are escaped on the way out,
   so none of them can break a document. *)

let add_escaped buffer s =
  (* Copy runs of plain bytes whole; only the escaped ones go one by
     one. *)
  let n = String.length s in
  let start = ref 0 in
  for i = 0 to n - 1 do
    let c = s.[i] in
    if c = '"' || c = '\\' || c < ' ' then begin
      if i > !start then Buffer.add_substring buffer s !start (i - !start);
      start := i + 1;
      Buffer.add_string buffer
        (match c with
        | '"' -> "\\\""
        | '\\' -> "\\\\"
        | '\n' -> "\\n"
        | '\r' -> "\\r"
        | '\t' -> "\\t"
        | c -> Printf.sprintf "\\u%04x" (Char.code c))
    end
  done;
  if n > !start then Buffer.add_substring buffer s !start (n - !start)

(* Escape a string for inclusion between double quotes in a JSON
   document: ["\""], ["\\"] and all control characters below 0x20
   (["\n"]/["\r"]/["\t"] as their short forms, the rest as [\u00xx]).
   Everything else passes through byte-for-byte. *)
let escape s =
  let buffer = Buffer.create (String.length s + 2) in
  add_escaped buffer s;
  Buffer.contents buffer

let add_string buffer s =
  Buffer.add_char buffer '"';
  add_escaped buffer s;
  Buffer.add_char buffer '"'

let quote s = "\"" ^ escape s ^ "\""

type value =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | List of value list
  | Obj of (string * value) list
  | Raw of string

let int n = Raw (string_of_int n)
let int64 n = Raw (Int64.to_string n)

let fixed digits f =
  if Float.is_finite f then Raw (Printf.sprintf "%.*f" digits f) else Null

type layout = Compact | Lines

let add_number buffer f =
  if not (Float.is_finite f) then Buffer.add_string buffer "null"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Buffer.add_string buffer (Printf.sprintf "%.0f" f)
  else
    let short = Printf.sprintf "%.15g" f in
    Buffer.add_string buffer
      (if Float.equal (float_of_string short) f then short
       else Printf.sprintf "%.17g" f)

(* [comma] and [colon] are the separators inside arrays and objects:
   [","]/[":"] for [Compact], [", "]/[": "] for values nested in a
   [Lines] document. *)
let rec add_value buffer ~comma ~colon = function
  | Null -> Buffer.add_string buffer "null"
  | Bool b -> Buffer.add_string buffer (if b then "true" else "false")
  | Number f -> add_number buffer f
  | String s -> add_string buffer s
  | Raw text -> Buffer.add_string buffer text
  | List items ->
      Buffer.add_char buffer '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_string buffer comma;
          add_value buffer ~comma ~colon item)
        items;
      Buffer.add_char buffer ']'
  | Obj members ->
      Buffer.add_char buffer '{';
      List.iteri
        (fun i (key, value) ->
          if i > 0 then Buffer.add_string buffer comma;
          add_string buffer key;
          Buffer.add_string buffer colon;
          add_value buffer ~comma ~colon value)
        members;
      Buffer.add_char buffer '}'

(* The start of one member of a [Lines] object: [\n  "key": ]. *)
let add_line_key buffer key =
  Buffer.add_string buffer "\n  ";
  add_string buffer key;
  Buffer.add_string buffer ": "

let to_string ?(layout = Compact) value =
  let buffer = Buffer.create 1024 in
  (match (layout, value) with
  | Compact, _ -> add_value buffer ~comma:"," ~colon:":" value
  | Lines, Obj members ->
      Buffer.add_char buffer '{';
      List.iteri
        (fun i (key, value) ->
          if i > 0 then Buffer.add_char buffer ',';
          add_line_key buffer key;
          add_value buffer ~comma:", " ~colon:": " value)
        members;
      Buffer.add_string buffer "\n}\n"
  | Lines, _ ->
      add_value buffer ~comma:", " ~colon:": " value;
      Buffer.add_char buffer '\n');
  Buffer.contents buffer

let append_members document members =
  (* Whitespace after the closing brace is dropped; the result keeps one
     trailing newline. *)
  let document = String.trim document in
  let n = String.length document in
  if n = 0 || document.[n - 1] <> '}' then
    invalid_arg "Json.append_members: not a JSON object";
  let buffer = Buffer.create (n + 64) in
  Buffer.add_substring buffer document 0 (n - 1);
  List.iter
    (fun (key, value) ->
      Buffer.add_char buffer ',';
      add_line_key buffer key;
      add_value buffer ~comma:"," ~colon:":" value)
    members;
  Buffer.add_string buffer "\n}\n";
  Buffer.contents buffer

(* ------------------------------------------------------------------ *)
(* Strict parser (RFC 8259 grammar). [parse] builds a value tree — the
   wire-protocol layer (Resim_serve.Protocol) reads requests through
   it — and [validate] is the same grammar with the tree discarded. *)

exception Bad of int * string

let parse data =
  let n = String.length data in
  let pos = ref 0 in
  let fail reason = raise (Bad (!pos, reason)) in
  let peek () = if !pos < n then Some data.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && (match data.[!pos] with
         | ' ' | '\t' | '\n' | '\r' -> true
         | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some got when got = c -> advance ()
    | Some got -> fail (Printf.sprintf "expected %C, got %C" c got)
    | None -> fail (Printf.sprintf "expected %C, got end of input" c)
  in
  let literal word =
    String.iter expect word
  in
  let is_hex = function
    | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true
    | _ -> false
  in
  let hex4 () =
    let cp = ref 0 in
    for _ = 1 to 4 do
      match peek () with
      | Some c when is_hex c ->
          cp := (!cp * 16) + int_of_string ("0x" ^ String.make 1 c);
          advance ()
      | _ -> fail "bad \\u escape"
    done;
    !cp
  in
  (* The code point of one [\uXXXX] escape, [pos] on its [u], decoded
     to UTF-8 by the caller: a high surrogate must be followed by a low
     one, and the pair is one code point above U+FFFF. Our emitters
     only write \u00xx (control bytes), so escape/parse round-trips
     byte-for-byte on every string [escape] can produce. *)
  let unicode_escape () =
    let start = !pos - 1 in
    let unpaired cp =
      raise (Bad (start, Printf.sprintf "unpaired surrogate \\u%04x" cp))
    in
    advance ();
    let high = hex4 () in
    if high >= 0xdc00 && high <= 0xdfff then unpaired high
    else if high < 0xd800 || high > 0xdbff then high
    else if !pos + 1 < n && data.[!pos] = '\\' && data.[!pos + 1] = 'u'
    then begin
      pos := !pos + 2;
      let low = hex4 () in
      if low < 0xdc00 || low > 0xdfff then unpaired high;
      0x10000 + ((high - 0xd800) lsl 10) + (low - 0xdc00)
    end
    else unpaired high
  in
  let add_escape buffer =
    match peek () with
    | Some ('"' | '\\' | '/') as c ->
        Buffer.add_char buffer (Option.get c);
        advance ()
    | Some 'b' -> Buffer.add_char buffer '\b'; advance ()
    | Some 'f' -> Buffer.add_char buffer '\012'; advance ()
    | Some 'n' -> Buffer.add_char buffer '\n'; advance ()
    | Some 'r' -> Buffer.add_char buffer '\r'; advance ()
    | Some 't' -> Buffer.add_char buffer '\t'; advance ()
    | Some 'u' ->
        Buffer.add_utf_8_uchar buffer (Uchar.of_int (unicode_escape ()))
    | Some c -> fail (Printf.sprintf "bad escape \\%C" c)
    | None -> fail "unterminated escape"
  in
  (* Moves [pos] past a run of plain string bytes and returns where the
     run began: strings are copied a run at a time, and one without
     escapes is a single [String.sub]. *)
  let plain_run () =
    let start = !pos in
    while
      !pos < n
      && (let c = data.[!pos] in c <> '"' && c <> '\\' && c >= ' ')
    do
      advance ()
    done;
    start
  in
  let parse_string () =
    expect '"';
    let start = plain_run () in
    if !pos < n && data.[!pos] = '"' then begin
      advance ();
      String.sub data start (!pos - 1 - start)
    end
    else begin
      let buffer = Buffer.create 64 in
      let rec run start =
        Buffer.add_substring buffer data start (!pos - start);
        match peek () with
        | None -> fail "unterminated string"
        | Some '"' -> advance ()
        | Some '\\' ->
            advance ();
            add_escape buffer;
            run (plain_run ())
        | Some _ -> fail "raw control character"
      in
      run start;
      Buffer.contents buffer
    end
  in
  let digits () =
    let start = !pos in
    while
      !pos < n && match data.[!pos] with '0' .. '9' -> true | _ -> false
    do
      advance ()
    done;
    if !pos = start then fail "expected digit"
  in
  let parse_number () =
    let start = !pos in
    if peek () = Some '-' then advance ();
    if peek () = Some '0' then begin
      advance ();
      match peek () with
      | Some '0' .. '9' -> fail "leading zero in number"
      | _ -> ()
    end
    else digits ();
    if peek () = Some '.' then begin
      advance ();
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
        advance ();
        (match peek () with
        | Some ('+' | '-') -> advance ()
        | _ -> ());
        digits ()
    | _ -> ());
    match float_of_string_opt (String.sub data start (!pos - start)) with
    | Some value -> value
    | None -> fail "unrepresentable number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "expected a value"
    | Some '"' -> String (parse_string ())
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let members = ref [] in
          let more = ref true in
          while !more do
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let value = parse_value () in
            members := (key, value) :: !members;
            skip_ws ();
            match peek () with
            | Some ',' -> advance ()
            | Some '}' -> advance (); more := false
            | _ -> fail "expected ',' or '}' in object"
          done;
          Obj (List.rev !members)
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let elements = ref [] in
          let more = ref true in
          while !more do
            elements := parse_value () :: !elements;
            skip_ws ();
            match peek () with
            | Some ',' -> advance ()
            | Some ']' -> advance (); more := false
            | _ -> fail "expected ',' or ']' in array"
          done;
          List (List.rev !elements)
        end
    | Some 't' -> literal "true"; Bool true
    | Some 'f' -> literal "false"; Bool false
    | Some 'n' -> literal "null"; Null
    | Some ('-' | '0' .. '9') -> Number (parse_number ())
    | Some c -> fail (Printf.sprintf "unexpected %C" c)
  in
  match
    let value = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage after document";
    value
  with
  | value -> Ok value
  | exception Bad (offset, reason) ->
      Error (Printf.sprintf "offset %d: %s" offset reason)

(* --- accessors over parsed values --------------------------------- *)

let member key = function
  | Obj members -> List.assoc_opt key members
  | _ -> None

let string_value = function String s -> Some s | _ -> None
let number_value = function Number n -> Some n | _ -> None
let bool_value = function Bool b -> Some b | _ -> None

let int_value value =
  match value with
  | Number n when Float.is_integer n && Float.abs n <= 1e15 ->
      Some (int_of_float n)
  | _ -> None
