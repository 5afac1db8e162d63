(* One escape routine for every hand-rolled JSON emitter in the tree
   (Stats, Sweep, Hostbench, Prof, the sample driver): free-form
   strings — labels, kernel names, fault reasons — must never be able
   to break a document. *)

let escape s =
  let buffer = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buffer "\\\""
      | '\\' -> Buffer.add_string buffer "\\\\"
      | '\n' -> Buffer.add_string buffer "\\n"
      | '\r' -> Buffer.add_string buffer "\\r"
      | '\t' -> Buffer.add_string buffer "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buffer (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buffer c)
    s;
  Buffer.contents buffer

let add_string buffer s =
  Buffer.add_char buffer '"';
  Buffer.add_string buffer (escape s);
  Buffer.add_char buffer '"'

let quote s = "\"" ^ escape s ^ "\""

let append_members document members =
  (* Accept any trailing whitespace after the closing brace; the result
     keeps one trailing newline. *)
  let n = ref (String.length document) in
  while
    !n > 0
    &&
    match document.[!n - 1] with
    | ' ' | '\t' | '\n' | '\r' -> true
    | _ -> false
  do
    decr n
  done;
  if !n = 0 || document.[!n - 1] <> '}' then
    invalid_arg "Json.append_members: not a JSON object";
  let buffer = Buffer.create (!n + 64) in
  Buffer.add_substring buffer document 0 (!n - 1);
  List.iter
    (fun (key, value) ->
      Buffer.add_string buffer ",\n  ";
      add_string buffer key;
      Buffer.add_string buffer ": ";
      Buffer.add_string buffer value)
    members;
  Buffer.add_string buffer "\n}\n";
  Buffer.contents buffer

(* ------------------------------------------------------------------ *)
(* Strict parser (RFC 8259 grammar). [parse] builds a value tree — the
   wire-protocol layer (Resim_serve.Protocol) reads requests through
   it — and [validate] is the same grammar with the tree discarded. *)

type value =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | List of value list
  | Obj of (string * value) list

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
  (* Decoded \uXXXX escapes are emitted as UTF-8; our own emitters only
     produce \u00xx (control bytes), so escape/parse round-trips
     byte-for-byte on every string [escape] can produce. *)
  let add_code_point buffer cp =
    if cp < 0x80 then Buffer.add_char buffer (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char buffer (Char.chr (0xc0 lor (cp lsr 6)));
      Buffer.add_char buffer (Char.chr (0x80 lor (cp land 0x3f)))
    end
    else begin
      Buffer.add_char buffer (Char.chr (0xe0 lor (cp lsr 12)));
      Buffer.add_char buffer (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
      Buffer.add_char buffer (Char.chr (0x80 lor (cp land 0x3f)))
    end
  in
  let parse_string () =
    expect '"';
    let buffer = Buffer.create 16 in
    let closed = ref false in
    while not !closed do
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance (); closed := true
      | Some '\\' -> (
          advance ();
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
              advance ();
              let cp = ref 0 in
              for _ = 1 to 4 do
                match peek () with
                | Some c when is_hex c ->
                    let digit =
                      match c with
                      | '0' .. '9' -> Char.code c - Char.code '0'
                      | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
                      | _ -> Char.code c - Char.code 'A' + 10
                    in
                    cp := (!cp * 16) + digit;
                    advance ()
                | _ -> fail "bad \\u escape"
              done;
              add_code_point buffer !cp
          | Some c -> fail (Printf.sprintf "bad escape \\%C" c)
          | None -> fail "unterminated escape")
      | Some c when Char.code c < 0x20 -> fail "raw control character"
      | Some c -> Buffer.add_char buffer c; advance ()
    done;
    Buffer.contents buffer
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
    digits ();
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

let validate data =
  match parse data with Ok _ -> Ok () | Error reason -> Error reason

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
