(* resimd wire protocol (DESIGN.md §16).

   Frames: a 4-byte big-endian payload length followed by that many
   bytes of UTF-8 JSON. One request per connection (client → server),
   a stream of events back (server → client) ending in [Done],
   [Rejected] or [Protocol_error].

   Malformed input is a structured error in the RSM-T style, never an
   exception: RSM-S001 oversized frame, RSM-S002 truncated frame (the
   stream ended mid-frame), RSM-S003 payload is not JSON, RSM-S004
   JSON with the wrong shape. *)

module Json = Resim_core.Json
module Config = Resim_core.Config

type frame_error = { code : string; detail : string }

let frame_error_to_string e = Printf.sprintf "%s: %s" e.code e.detail

(* --- framing ------------------------------------------------------ *)

let max_frame = 16 * 1024 * 1024

let frame payload =
  let n = String.length payload in
  if n > max_frame then
    invalid_arg (Printf.sprintf "Protocol.frame: %d bytes exceeds max" n);
  let b = Bytes.create (n + 4) in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Bytes.blit_string payload 0 b 4 n;
  Bytes.unsafe_to_string b

let frame_length header =
  let n = Int32.to_int (String.get_int32_be header 0) land 0xffff_ffff in
  if n > max_frame then
    Error
      { code = "RSM-S001";
        detail =
          Printf.sprintf "frame of %d bytes exceeds the %d-byte limit" n
            max_frame }
  else Ok n

let next_frame buffer ~offset =
  let available = Buffer.length buffer - offset in
  if available < 4 then Ok None
  else
    Result.map
      (fun n ->
        if available - 4 < n then None
        else Some (Buffer.sub buffer (offset + 4) n, offset + 4 + n))
      (frame_length (Buffer.sub buffer offset 4))

let finish buffer ~offset =
  let trailing = Buffer.length buffer - offset in
  if trailing = 0 then Ok ()
  else
    Error
      { code = "RSM-S002";
        detail =
          Printf.sprintf "stream ended mid-frame with %d trailing byte(s)"
            trailing }

(* --- requests ----------------------------------------------------- *)

type config_spec = {
  base : string;  (* "reference" | "fast" *)
  width : int option;
  rob : int option;
  lsq : int option;
  organization : string option;
}

let reference_spec =
  { base = "reference";
    width = None;
    rob = None;
    lsq = None;
    organization = None }

(* A width override derives the decouple buffer, ALU count, memory
   ports and organization as [resim vhdl] does, but keeps the base's
   IFQ when it is deeper than one fetch group (reference at width 2:
   IFQ 4, where [vhdl -w 2] builds IFQ 2). *)
let resolve_config spec =
  let ( let* ) = Result.bind in
  let* base =
    match spec.base with
    | "reference" -> Ok Config.reference
    | "fast" -> Ok Config.fast_comparable
    | other -> Error (Printf.sprintf "unknown base config %S" other)
  in
  let config =
    match spec.width with
    | None -> base
    | Some width ->
        { base with
          Config.width;
          ifq_entries = max width base.Config.ifq_entries;
          decouple_entries = width;
          alu_count = width;
          mem_read_ports = max 1 ((width - 1) / 2);
          mem_write_ports = 1;
          organization =
            (if width >= 3 then Config.Optimized else Config.Improved) }
  in
  let config =
    match spec.rob with
    | None -> config
    | Some rob_entries -> { config with Config.rob_entries }
  in
  let config =
    match spec.lsq with
    | None -> config
    | Some lsq_entries -> { config with Config.lsq_entries }
  in
  match spec.organization with
  | None -> Ok config
  | Some "simple" -> Ok { config with Config.organization = Simple }
  | Some "improved" -> Ok { config with Config.organization = Improved }
  | Some "optimized" -> Ok { config with Config.organization = Optimized }
  | Some other -> Error (Printf.sprintf "unknown organization %S" other)

type sim_spec = {
  kernel : string;
  scale : int option;
  trace : string option;  (* server-host path to an encoded trace *)
  config : config_spec;
  max_cycles : int64 option;
  timeout : float option;
  sample : string option;  (* detail:warmup[:seed] *)
}

type body =
  | Simulate of sim_spec
  | Sweep_grid of {
      kernels : string list;
      widths : int list;
      config : config_spec;
      max_cycles : int64 option;
      timeout : float option;
      sample : string option;
    }
  | Lint of { path : string; max_run : int option }
  | Status
  | Crash_worker  (* test hook: kills the worker domain that takes it *)

type request = { client : string; body : body }

let body_class = function
  | Simulate _ | Crash_worker -> `Simulate
  | Sweep_grid _ -> `Sweep
  | Lint _ -> `Lint
  | Status -> `Status

(* --- events ------------------------------------------------------- *)

type rejection =
  | Over_quota
  | Queue_full
  | Shed_lint
  | Shed_sweep
  | Draining
  | Bad_request of string

let rejection_tag = function
  | Over_quota -> "over-quota"
  | Queue_full -> "queue-full"
  | Shed_lint -> "shed-lint"
  | Shed_sweep -> "shed-sweep"
  | Draining -> "draining"
  | Bad_request _ -> "bad-request"

let rejection_to_string = function
  | Bad_request detail -> Printf.sprintf "bad-request: %s" detail
  | r -> rejection_tag r

type done_payload = {
  outcome : string;
      (* ok | truncated | fault | deadlock | invalid-config | crash
         | timed-out | lint-clean | lint-errors *)
  exit_code : int;
  cached : bool;
  attempts : int;
  detail : string option;
  metrics : string option;     (* a complete JSON document, verbatim *)
  checkpoint : string option;  (* RSCP text when truncated *)
}

type event =
  | Accepted of { job_id : int }
  | Rejected of rejection
  | Progress of { completed : int; total : int; label : string }
  | Done of done_payload
  | Status_report of {
      counters : (string * int) list;
      queue : int;
      running : int;
      workers : int;
      draining : bool;
    }
  | Protocol_error of frame_error

(* --- encoding ----------------------------------------------------- *)

(* Optional members are left out when absent. *)
let opt name encode = function None -> [] | Some v -> [ (name, encode v) ]
let str s = Json.String s

let config_spec_json spec =
  Json.Obj
    ([ ("base", str spec.base) ]
    @ opt "width" Json.int spec.width
    @ opt "rob" Json.int spec.rob
    @ opt "lsq" Json.int spec.lsq
    @ opt "organization" str spec.organization)

let budget_members ~max_cycles ~timeout ~sample =
  opt "max_cycles" Json.int64 max_cycles
  @ opt "timeout" (Json.fixed 6) timeout
  @ opt "sample" str sample

let body_members = function
  | Simulate spec ->
      [ ("kind", str "simulate"); ("kernel", str spec.kernel) ]
      @ opt "scale" Json.int spec.scale
      @ opt "trace" str spec.trace
      @ [ ("config", config_spec_json spec.config) ]
      @ budget_members ~max_cycles:spec.max_cycles ~timeout:spec.timeout
          ~sample:spec.sample
  | Sweep_grid { kernels; widths; config; max_cycles; timeout; sample } ->
      [ ("kind", str "sweep");
        ("kernels", Json.List (List.map str kernels));
        ("widths", Json.List (List.map Json.int widths));
        ("config", config_spec_json config) ]
      @ budget_members ~max_cycles ~timeout ~sample
  | Lint { path; max_run } ->
      [ ("kind", str "lint"); ("trace", str path) ]
      @ opt "max_run" Json.int max_run
  | Status -> [ ("kind", str "status") ]
  | Crash_worker -> [ ("kind", str "crash-worker") ]

let encode_request { client; body } =
  Json.to_string
    (Json.Obj
       ([ ("v", Json.int 1); ("client", str client) ] @ body_members body))

let event name members =
  Json.to_string (Json.Obj (("event", str name) :: members))

let encode_event = function
  | Accepted { job_id } -> event "accepted" [ ("job", Json.int job_id) ]
  | Rejected rejection ->
      event "rejected"
        (("reason", str (rejection_tag rejection))
        :: (match rejection with
           | Bad_request detail -> [ ("detail", str detail) ]
           | _ -> []))
  | Progress { completed; total; label } ->
      event "progress"
        [ ("done", Json.int completed);
          ("total", Json.int total);
          ("label", str label) ]
  | Done p ->
      event "done"
        ([ ("outcome", str p.outcome);
           ("exit", Json.int p.exit_code);
           ("cached", Json.Bool p.cached);
           ("attempts", Json.int p.attempts) ]
        @ opt "detail" str p.detail
        @ opt "metrics" str p.metrics
        @ opt "checkpoint" str p.checkpoint)
  | Status_report { counters; queue; running; workers; draining } ->
      event "status"
        [ ("queue", Json.int queue);
          ("running", Json.int running);
          ("workers", Json.int workers);
          ("draining", Json.Bool draining);
          ( "counters",
            Json.Obj (List.map (fun (name, n) -> (name, Json.int n)) counters)
          ) ]
  | Protocol_error { code; detail } ->
      event "error" [ ("code", str code); ("detail", str detail) ]

(* --- decoding ----------------------------------------------------- *)

let bad_shape detail = Error { code = "RSM-S004"; detail }

let parse_payload payload =
  match Json.parse payload with
  | Error detail -> Error { code = "RSM-S003"; detail }
  | Ok (Json.Obj _ as value) -> Ok value
  | Ok _ -> bad_shape "payload is not a JSON object"

let str_member name value = Option.bind (Json.member name value) Json.string_value
let int_member name value = Option.bind (Json.member name value) Json.int_value
let bool_member name value = Option.bind (Json.member name value) Json.bool_value

let int64_member name value =
  Option.bind (Json.member name value) (fun v ->
      Option.map Int64.of_int (Json.int_value v))

let float_member name value =
  Option.bind (Json.member name value) Json.number_value

let require name = function
  | Some v -> Ok v
  | None -> bad_shape (Printf.sprintf "missing or mistyped field %S" name)

let decode_config_spec value =
  let ( let* ) = Result.bind in
  match value with
  | None -> Ok reference_spec
  | Some (Json.Obj _ as v) ->
      let* base = require "base" (str_member "base" v) in
      Ok
        { base;
          width = int_member "width" v;
          rob = int_member "rob" v;
          lsq = int_member "lsq" v;
          organization = str_member "organization" v }
  | Some _ -> bad_shape "config is not an object"

let decode_sim_spec v =
  let ( let* ) = Result.bind in
  let* kernel = require "kernel" (str_member "kernel" v) in
  let* config = decode_config_spec (Json.member "config" v) in
  Ok
    { kernel;
      scale = int_member "scale" v;
      trace = str_member "trace" v;
      config;
      max_cycles = int64_member "max_cycles" v;
      timeout = float_member "timeout" v;
      sample = str_member "sample" v }

let string_list_member name v =
  match Json.member name v with
  | Some (Json.List items) ->
      let strings = List.filter_map Json.string_value items in
      if List.length strings = List.length items then Some strings else None
  | _ -> None

let int_list_member name v =
  match Json.member name v with
  | Some (Json.List items) ->
      let ints = List.filter_map Json.int_value items in
      if List.length ints = List.length items then Some ints else None
  | _ -> None

let decode_request payload =
  let ( let* ) = Result.bind in
  let* v = parse_payload payload in
  let* client = require "client" (str_member "client" v) in
  let* kind = require "kind" (str_member "kind" v) in
  let* body =
    match kind with
    | "simulate" ->
        let* spec = decode_sim_spec v in
        Ok (Simulate spec)
    | "sweep" ->
        let* kernels = require "kernels" (string_list_member "kernels" v) in
        let* widths = require "widths" (int_list_member "widths" v) in
        let* config = decode_config_spec (Json.member "config" v) in
        Ok
          (Sweep_grid
             { kernels;
               widths;
               config;
               max_cycles = int64_member "max_cycles" v;
               timeout = float_member "timeout" v;
               sample = str_member "sample" v })
    | "lint" ->
        let* path = require "trace" (str_member "trace" v) in
        Ok (Lint { path; max_run = int_member "max_run" v })
    | "status" -> Ok Status
    | "crash-worker" -> Ok Crash_worker
    | other -> bad_shape (Printf.sprintf "unknown request kind %S" other)
  in
  Ok { client; body }

let decode_done v =
  let ( let* ) = Result.bind in
  let* outcome = require "outcome" (str_member "outcome" v) in
  let* exit_code = require "exit" (int_member "exit" v) in
  let* cached = require "cached" (bool_member "cached" v) in
  let* attempts = require "attempts" (int_member "attempts" v) in
  Ok
    { outcome;
      exit_code;
      cached;
      attempts;
      detail = str_member "detail" v;
      metrics = str_member "metrics" v;
      checkpoint = str_member "checkpoint" v }

let decode_event payload =
  let ( let* ) = Result.bind in
  let* v = parse_payload payload in
  let* event = require "event" (str_member "event" v) in
  match event with
  | "accepted" ->
      let* job_id = require "job" (int_member "job" v) in
      Ok (Accepted { job_id })
  | "rejected" ->
      let* reason = require "reason" (str_member "reason" v) in
      let* rejection =
        match reason with
        | "over-quota" -> Ok Over_quota
        | "queue-full" -> Ok Queue_full
        | "shed-lint" -> Ok Shed_lint
        | "shed-sweep" -> Ok Shed_sweep
        | "draining" -> Ok Draining
        | "bad-request" ->
            Ok
              (Bad_request
                 (Option.value ~default:"" (str_member "detail" v)))
        | other -> bad_shape (Printf.sprintf "unknown rejection %S" other)
      in
      Ok (Rejected rejection)
  | "progress" ->
      let* completed = require "done" (int_member "done" v) in
      let* total = require "total" (int_member "total" v) in
      let* label = require "label" (str_member "label" v) in
      Ok (Progress { completed; total; label })
  | "done" ->
      let* payload = decode_done v in
      Ok (Done payload)
  | "status" ->
      let* queue = require "queue" (int_member "queue" v) in
      let* running = require "running" (int_member "running" v) in
      let* workers = require "workers" (int_member "workers" v) in
      let* draining = require "draining" (bool_member "draining" v) in
      let* counters =
        match Json.member "counters" v with
        | Some (Resim_core.Json.Obj members) ->
            let ints = List.filter_map
                (fun (name, value) ->
                  Option.map (fun n -> (name, n)) (Json.int_value value))
                members
            in
            if List.length ints = List.length members then Ok ints
            else bad_shape "non-integer counter"
        | _ -> bad_shape "missing counters object"
      in
      Ok (Status_report { counters; queue; running; workers; draining })
  | "error" ->
      let* code = require "code" (str_member "code" v) in
      let* detail = require "detail" (str_member "detail" v) in
      Ok (Protocol_error { code; detail })
  | other -> bad_shape (Printf.sprintf "unknown event %S" other)
