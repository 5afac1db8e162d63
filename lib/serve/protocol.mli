(** resimd wire protocol: length-prefixed JSON frames (DESIGN.md §16).

    A frame is a 4-byte big-endian payload length followed by that
    many bytes of JSON. A connection carries one {!request} from the
    client and a stream of {!event}s back, ending in [Done],
    [Rejected] or [Protocol_error]. Malformed input is always a
    structured {!frame_error} — [RSM-S001] oversized frame, [RSM-S002]
    truncated stream, [RSM-S003] payload not JSON, [RSM-S004] JSON of
    the wrong shape — never an exception. *)

type frame_error = { code : string; detail : string }

val frame_error_to_string : frame_error -> string

(** {1 Framing} *)

val frame : string -> string
(** Prefix the payload with its 4-byte big-endian length. Raises
    [Invalid_argument] beyond 16 MiB (server payloads are
    bounded by construction). *)

val frame_length : string -> (int, frame_error) result
(** The payload length declared by a 4-byte header; beyond 16 MiB it
    is [RSM-S001]. *)

val next_frame :
  Buffer.t -> offset:int -> ((string * int) option, frame_error) result
(** Extract the next complete frame from a receive buffer, copying
    only its 4-byte header and, once complete, its payload — never
    the bytes before [offset]:
    [Ok (Some (payload, next_offset))] on a complete frame, [Ok None]
    when more bytes are needed, [Error] ([RSM-S001]) when the declared
    length exceeds 16 MiB. *)

val finish : Buffer.t -> offset:int -> (unit, frame_error) result
(** At end-of-stream: trailing bytes that never completed a frame are
    [RSM-S002]. *)

(** {1 Requests} *)

(** Wire form of a configuration: a named base plus overrides. A
    [width] override N derives the decouple buffer and ALU count (N),
    the memory ports and the organization as [resim vhdl] does, but the
    IFQ keeps the base's depth when that exceeds N ([max N
    base.ifq_entries]): the reference base at width 2 simulates IFQ 4,
    where [resim vhdl -w 2] builds IFQ 2. Unknown members are ignored on
    decode, including the [scheduler] member older clients send. *)
type config_spec = {
  base : string;  (** ["reference"] or ["fast"] *)
  width : int option;
  rob : int option;
  lsq : int option;
  organization : string option;  (** simple | improved | optimized *)
}

val reference_spec : config_spec

val resolve_config : config_spec -> (Resim_core.Config.t, string) result
(** Build the configuration a spec denotes. [Error] on unknown names;
    structural validation (resim-check) happens server-side per job. *)

type sim_spec = {
  kernel : string;
  scale : int option;
  trace : string option;
      (** server-host path to an encoded trace file, overriding kernel
          generation *)
  config : config_spec;
  max_cycles : int64 option;
  timeout : float option;
  sample : string option;  (** [detail:warmup[:seed]] *)
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
    }  (** the kernels × widths grid, run as one streamed job *)
  | Lint of { path : string; max_run : int option }
  | Status
  | Crash_worker
      (** test hook ([resim serve --test-hooks]): the worker domain
          that takes this job dies, exercising the supervisor *)

type request = { client : string; body : body }

val body_class : body -> [ `Simulate | `Sweep | `Lint | `Status ]
(** Admission class: shedding targets [`Lint] first, then [`Sweep],
    never [`Simulate]. *)

(** {1 Events} *)

type rejection =
  | Over_quota    (** the client is at its outstanding-job quota *)
  | Queue_full    (** global queue at capacity *)
  | Shed_lint     (** overload shedding: lint refused first *)
  | Shed_sweep    (** overload shedding: sweeps refused next *)
  | Draining      (** server is draining after SIGTERM *)
  | Bad_request of string

val rejection_to_string : rejection -> string

type done_payload = {
  outcome : string;
      (** ok | truncated | fault | deadlock | invalid-config | crash |
          timed-out | lint-clean | lint-errors *)
  exit_code : int;
      (** authoritative CLI exit for this outcome: 0 ok/truncated,
          1 lint errors, 2 invalid config/bad request, 3 server-side
          fault (fault/deadlock/crash/timed-out) *)
  cached : bool;
  attempts : int;
  detail : string option;
  metrics : string option;  (** a complete JSON document, verbatim *)
  checkpoint : string option;  (** RSCP text when truncated *)
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

(** {1 Codec}

    Messages are {!Resim_core.Json.value}s printed compact; absent
    options are left out, and a non-finite [timeout] is written [null],
    which decodes as [None]. [decode_* (encode_* x) = Ok x] for finite
    timeouts — the qcheck property in [test/test_serve.ml], which also
    pins the bytes of every message kind. *)

val encode_request : request -> string
val decode_request : string -> (request, frame_error) result
val encode_event : event -> string
val decode_event : string -> (event, frame_error) result
