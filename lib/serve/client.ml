(* Blocking client for the resimd wire protocol (DESIGN.md §16).

   One request, one connection: connect, send a single framed request,
   then read framed events until a terminal one (done / rejected /
   status / protocol-error) or the stream ends. Every failure mode is
   a typed [error] so callers — the CLI, the load generator, the test
   suite — map outcomes to exit codes without string matching.

   This module spawns nothing and shares nothing; the load generator's
   worker domains call into it cross-module with connection-local
   state only. *)

type error =
  | Refused of string              (* could not connect: exit 4 *)
  | Transport of string            (* stream died mid-conversation *)
  | Malformed of Protocol.frame_error  (* unparseable server bytes *)

let error_to_string = function
  | Refused detail -> Printf.sprintf "connection refused: %s" detail
  | Transport detail -> Printf.sprintf "connection lost: %s" detail
  | Malformed fe -> Protocol.frame_error_to_string fe

(* Client-side exit codes 4 (unreachable) and 5 (admission refusal)
   extend the simulate/sweep/lint codes 0-3 that travel inside [Done]
   payloads; [Bad_request] keeps the invalid-input code 2. *)
let exit_code_of_error = function
  | Refused _ -> 4
  | Transport _ | Malformed _ -> 3

let exit_code_of_terminal = function
  | Protocol.Done payload -> payload.Protocol.exit_code
  | Protocol.Rejected (Protocol.Bad_request _) -> 2
  | Protocol.Rejected _ -> 5
  | Protocol.Status_report _ -> 0
  | Protocol.Protocol_error _ -> 3
  | Protocol.Accepted _ | Protocol.Progress _ -> 3

let connect socket =
  let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
  match Unix.connect fd (ADDR_UNIX socket) with
  | () -> Ok fd
  | exception Unix.Unix_error (code, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error (Refused (Unix.error_message code))

let send_all fd data =
  let len = String.length data in
  let rec go sent =
    if sent >= len then Ok ()
    else
      match Unix.write_substring fd data sent (len - sent) with
      | exception Unix.Unix_error (EINTR, _, _) -> go sent
      | exception Unix.Unix_error (code, _, _) ->
          Error (Transport (Unix.error_message code))
      | written -> go (sent + written)
  in
  go 0

let is_terminal = function
  | Protocol.Done _ | Protocol.Rejected _ | Protocol.Status_report _
  | Protocol.Protocol_error _ ->
      true
  | Protocol.Accepted _ | Protocol.Progress _ -> false

(* Exactly [n] bytes from [fd]: the end of the stream before them is a
   transport error. *)
let read_exactly fd n =
  let buffer = Bytes.create n in
  let rec go got =
    if got = n then Ok (Bytes.unsafe_to_string buffer)
    else
      match Unix.read fd buffer got (n - got) with
      | exception Unix.Unix_error (EINTR, _, _) -> go got
      | exception Unix.Unix_error (code, _, _) ->
          Error (Transport (Unix.error_message code))
      | 0 ->
          Error (Transport "server closed the stream before a terminal event")
      | read -> go (got + read)
  in
  go 0

let malformed result = Result.map_error (fun fe -> Malformed fe) result

(* Send [raw] as one frame and read events until a terminal one: each
   frame's header, then exactly its payload. [raw] is normally
   [Protocol.frame (Protocol.encode_request r)]; tests use it to shove
   garbage and truncated frames down the wire. *)
let converse_raw ?(on_event = fun (_ : Protocol.event) -> ()) ~socket raw =
  let ( let* ) = Result.bind in
  let* fd = connect socket in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let* () = send_all fd raw in
      let rec read_events () =
        let* header = read_exactly fd 4 in
        let* n = malformed (Protocol.frame_length header) in
        let* payload = read_exactly fd n in
        let* event = malformed (Protocol.decode_event payload) in
        on_event event;
        if is_terminal event then Ok event else read_events ()
      in
      read_events ())

let converse ?on_event ~socket request =
  converse_raw ?on_event ~socket
    (Protocol.frame (Protocol.encode_request request))
