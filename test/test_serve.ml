(* resimd: wire protocol, admission, supervision, cache, exit codes
   (DESIGN.md §16).

   The protocol properties are pure qcheck round-trips. The server
   tests run a real daemon — in-process (a domain running
   [Server.run], drained by signalling ourselves) for the typed
   client paths, and as a subprocess of the installed CLI for the
   table-driven exit-code rows. *)

open Alcotest

module Protocol = Resim_serve.Protocol
module Client = Resim_serve.Client
module Server = Resim_serve.Server
module Checkpoint = Resim_core.Checkpoint
module Resim = Resim_core.Resim
module Config = Resim_core.Config
module Json = Resim_core.Json

(* --- generators ----------------------------------------------------- *)

let gen_name =
  QCheck.Gen.(
    map (String.concat "")
      (list_size (int_range 1 12)
         (map (String.make 1)
            (oneof [ char_range 'a' 'z'; char_range '0' '9'; return '-' ]))))

let gen_text =
  QCheck.Gen.(string_size ~gen:printable (int_range 0 40))

(* %.6f-encoded floats: pick milli-precision values so the wire
   round-trip is exact. *)
let gen_timeout = QCheck.Gen.(map (fun n -> float_of_int n /. 1000.) (int_range 1 100_000))

let gen_opt g = QCheck.Gen.(oneof [ return None; map Option.some g ])

let gen_config_spec =
  QCheck.Gen.(
    map
      (fun (base, width, rob, lsq, organization) ->
        { Protocol.base; width; rob; lsq; organization })
      (tup5
         (oneofl [ "reference"; "fast"; "weird" ])
         (gen_opt (int_range 1 8))
         (gen_opt (int_range 1 512))
         (gen_opt (int_range 1 128))
         (gen_opt (oneofl [ "simple"; "improved"; "optimized" ]))))

let gen_sim_spec =
  QCheck.Gen.(
    map
      (fun (kernel, scale, trace, config, max_cycles, timeout, sample) ->
        { Protocol.kernel; scale; trace; config; max_cycles; timeout; sample })
      (tup7 gen_name
         (gen_opt (int_range 1 100_000))
         (gen_opt gen_text) gen_config_spec
         (gen_opt (map Int64.of_int (int_range 1 1_000_000)))
         (gen_opt gen_timeout) (gen_opt gen_text)))

let gen_body =
  QCheck.Gen.(
    oneof
      [ map (fun spec -> Protocol.Simulate spec) gen_sim_spec;
        map
          (fun (kernels, widths, config, max_cycles, timeout, sample) ->
            Protocol.Sweep_grid
              { kernels; widths; config; max_cycles; timeout; sample })
          (tup6
             (list_size (int_range 1 4) gen_name)
             (list_size (int_range 1 4) (int_range 1 8))
             gen_config_spec
             (gen_opt (map Int64.of_int (int_range 1 1_000_000)))
             (gen_opt gen_timeout) (gen_opt gen_text));
        map
          (fun (path, max_run) -> Protocol.Lint { path; max_run })
          (tup2 gen_text (gen_opt (int_range 1 10_000)));
        return Protocol.Status;
        return Protocol.Crash_worker ])

let gen_request =
  QCheck.Gen.(
    map (fun (client, body) -> { Protocol.client; body })
      (tup2 gen_name gen_body))

let gen_rejection =
  QCheck.Gen.(
    oneof
      [ return Protocol.Over_quota;
        return Protocol.Queue_full;
        return Protocol.Shed_lint;
        return Protocol.Shed_sweep;
        return Protocol.Draining;
        map (fun detail -> Protocol.Bad_request detail) gen_text ])

let gen_done_payload =
  QCheck.Gen.(
    map
      (fun (outcome, exit_code, cached, attempts, detail, metrics, checkpoint) ->
        { Protocol.outcome; exit_code; cached; attempts; detail; metrics;
          checkpoint })
      (tup7
         (oneofl
            [ "ok"; "truncated"; "fault"; "deadlock"; "invalid-config";
              "crash"; "timed-out"; "lint-clean"; "lint-errors" ])
         (int_range 0 5) bool (int_range 1 9) (gen_opt gen_text)
         (gen_opt gen_text) (gen_opt gen_text)))

let gen_event =
  QCheck.Gen.(
    oneof
      [ map (fun job_id -> Protocol.Accepted { job_id }) (int_range 1 10_000);
        map (fun r -> Protocol.Rejected r) gen_rejection;
        map
          (fun (completed, total, label) ->
            Protocol.Progress { completed; total; label })
          (tup3 (int_range 0 100) (int_range 1 100) gen_text);
        map (fun p -> Protocol.Done p) gen_done_payload;
        map
          (fun (counters, queue, running, workers, draining) ->
            Protocol.Status_report { counters; queue; running; workers; draining })
          (tup5
             (list_size (int_range 0 5) (tup2 gen_name (int_range 0 1000)))
             (int_range 0 100) (int_range 0 16) (int_range 1 16) bool);
        map
          (fun (code, detail) -> Protocol.Protocol_error { code; detail })
          (tup2 gen_name gen_text) ])

(* --- protocol properties -------------------------------------------- *)

let property_request_round_trip =
  QCheck.Test.make ~count:500 ~name:"wire requests round-trip"
    (QCheck.make gen_request) (fun request ->
      Protocol.decode_request (Protocol.encode_request request) = Ok request)

let property_event_round_trip =
  QCheck.Test.make ~count:500 ~name:"wire events round-trip"
    (QCheck.make gen_event) (fun event ->
      Protocol.decode_event (Protocol.encode_event event) = Ok event)

(* --- pinned wire bytes ------------------------------------------------ *)

(* The round-trips above hold for any encoding both sides agree on; the
   bytes themselves are a contract too (a resimd cache dir stores
   encoded [done] events, and perfbench hashes the replies), so every
   request and event kind is pinned here, with optional members absent
   and present and a string holding a quote, a backslash, a newline and
   a control byte. *)
let tricky = "q\"b\\s\nc\x01e"

let full_config =
  { Protocol.base = "fast";
    width = Some 2;
    rob = Some 32;
    lsq = Some 8;
    organization = Some "optimized" }

let pinned_requests =
  let request body = { Protocol.client = "cli"; body } in
  [ ( "simulate, options absent",
      request
        (Protocol.Simulate
           { Protocol.kernel = "gzip"; scale = None; trace = None;
             config = Protocol.reference_spec; max_cycles = None;
             timeout = None; sample = None }),
      {|{"v":1,"client":"cli","kind":"simulate","kernel":"gzip","config":{"base":"reference"}}|}
    );
    ( "simulate, options present",
      { Protocol.client = tricky;
        body =
          Protocol.Simulate
            { Protocol.kernel = "mcf"; scale = Some 200; trace = Some tricky;
              config = full_config; max_cycles = Some 5000L;
              timeout = Some 1.5; sample = Some "50:450:7" } },
      {|{"v":1,"client":"q\"b\\s\nc\u0001e","kind":"simulate","kernel":"mcf","scale":200,"trace":"q\"b\\s\nc\u0001e","config":{"base":"fast","width":2,"rob":32,"lsq":8,"organization":"optimized"},"max_cycles":5000,"timeout":1.500000,"sample":"50:450:7"}|}
    );
    ( "sweep, options absent",
      request
        (Protocol.Sweep_grid
           { kernels = [ "gzip" ]; widths = [ 4 ];
             config = Protocol.reference_spec; max_cycles = None;
             timeout = None; sample = None }),
      {|{"v":1,"client":"cli","kind":"sweep","kernels":["gzip"],"widths":[4],"config":{"base":"reference"}}|}
    );
    ( "sweep, options present",
      request
        (Protocol.Sweep_grid
           { kernels = [ "gzip"; tricky ]; widths = [ 2; 4; 8 ];
             config = full_config; max_cycles = Some 1000L;
             timeout = Some 0.25; sample = Some "100:900" }),
      {|{"v":1,"client":"cli","kind":"sweep","kernels":["gzip","q\"b\\s\nc\u0001e"],"widths":[2,4,8],"config":{"base":"fast","width":2,"rob":32,"lsq":8,"organization":"optimized"},"max_cycles":1000,"timeout":0.250000,"sample":"100:900"}|}
    );
    ( "lint, options absent",
      request (Protocol.Lint { path = "/t.rtr"; max_run = None }),
      {|{"v":1,"client":"cli","kind":"lint","trace":"/t.rtr"}|} );
    ( "lint, options present",
      request (Protocol.Lint { path = tricky; max_run = Some 64 }),
      {|{"v":1,"client":"cli","kind":"lint","trace":"q\"b\\s\nc\u0001e","max_run":64}|}
    );
    ( "status",
      request Protocol.Status,
      {|{"v":1,"client":"cli","kind":"status"}|} );
    ( "crash-worker",
      request Protocol.Crash_worker,
      {|{"v":1,"client":"cli","kind":"crash-worker"}|} ) ]

let pinned_events =
  let rejected reason = {|{"event":"rejected","reason":"|} ^ reason ^ {|"}|} in
  [ ( "accepted",
      Protocol.Accepted { job_id = 42 },
      {|{"event":"accepted","job":42}|} );
    ("over-quota", Protocol.Rejected Over_quota, rejected "over-quota");
    ("queue-full", Protocol.Rejected Queue_full, rejected "queue-full");
    ("shed-lint", Protocol.Rejected Shed_lint, rejected "shed-lint");
    ("shed-sweep", Protocol.Rejected Shed_sweep, rejected "shed-sweep");
    ("draining", Protocol.Rejected Draining, rejected "draining");
    ( "bad-request",
      Protocol.Rejected (Protocol.Bad_request tricky),
      {|{"event":"rejected","reason":"bad-request","detail":"q\"b\\s\nc\u0001e"}|} );
    ( "progress",
      Protocol.Progress { completed = 3; total = 14; label = tricky },
      {|{"event":"progress","done":3,"total":14,"label":"q\"b\\s\nc\u0001e"}|} );
    ( "done, options absent",
      Protocol.Done
        { Protocol.outcome = "ok"; exit_code = 0; cached = false; attempts = 1;
          detail = None; metrics = None; checkpoint = None },
      {|{"event":"done","outcome":"ok","exit":0,"cached":false,"attempts":1}|} );
    ( "done, options present",
      Protocol.Done
        { Protocol.outcome = "truncated"; exit_code = 0; cached = true;
          attempts = 2; detail = Some tricky;
          metrics = Some "{\n  \"degraded\": false\n}\n";
          checkpoint = Some "RSCP 1\ncycle 5\n" },
      {|{"event":"done","outcome":"truncated","exit":0,"cached":true,"attempts":2,"detail":"q\"b\\s\nc\u0001e","metrics":"{\n  \"degraded\": false\n}\n","checkpoint":"RSCP 1\ncycle 5\n"}|}
    );
    ( "status, no counters",
      Protocol.Status_report
        { counters = []; queue = 0; running = 0; workers = 1;
          draining = false },
      {|{"event":"status","queue":0,"running":0,"workers":1,"draining":false,"counters":{}}|}
    );
    ( "status, counters",
      Protocol.Status_report
        { counters = [ ("accepted", 7); (tricky, 0) ]; queue = 3; running = 2;
          workers = 4; draining = true },
      {|{"event":"status","queue":3,"running":2,"workers":4,"draining":true,"counters":{"accepted":7,"q\"b\\s\nc\u0001e":0}}|}
    );
    ( "error",
      Protocol.Protocol_error { code = "RSM-S003"; detail = tricky },
      {|{"event":"error","code":"RSM-S003","detail":"q\"b\\s\nc\u0001e"}|} ) ]

let test_request_bytes () =
  List.iter
    (fun (label, request, expected) ->
      check string label expected (Protocol.encode_request request))
    pinned_requests

let test_event_bytes () =
  List.iter
    (fun (label, event, expected) ->
      check string label expected (Protocol.encode_event event))
    pinned_events

(* A non-finite budget (`submit --timeout inf`, `nan`, `1e400`) goes on
   the wire as [null] and comes back as no budget. *)
let test_non_finite_timeout () =
  List.iter
    (fun timeout ->
      let label = Printf.sprintf "timeout %h" timeout in
      let request =
        { Protocol.client = "cli";
          body =
            Protocol.Simulate
              { Protocol.kernel = "gzip"; scale = None; trace = None;
                config = Protocol.reference_spec; max_cycles = None;
                timeout = Some timeout; sample = None } }
      in
      let encoded = Protocol.encode_request request in
      check bool (label ^ ": validates") true (Result.is_ok (Json.parse encoded));
      match Protocol.decode_request encoded with
      | Ok { Protocol.body = Protocol.Simulate spec; _ } ->
          check bool (label ^ ": decodes to no budget") true
            (spec.Protocol.timeout = None)
      | Ok _ -> fail (label ^ ": decoded to another request kind")
      | Error error ->
          fail (label ^ ": " ^ Protocol.frame_error_to_string error))
    [ infinity; nan; neg_infinity ]

let buffer_of text =
  let buffer = Buffer.create (String.length text) in
  Buffer.add_string buffer text;
  buffer

let property_frame_round_trip =
  QCheck.Test.make ~count:200 ~name:"frame streams reassemble"
    QCheck.(list_of_size (QCheck.Gen.int_range 0 8) (QCheck.make gen_text))
    (fun payloads ->
      let stream =
        buffer_of (String.concat "" (List.map Protocol.frame payloads))
      in
      let rec collect offset acc =
        match Protocol.next_frame stream ~offset with
        | Ok (Some (payload, next)) -> collect next (payload :: acc)
        | Ok None -> Protocol.finish stream ~offset = Ok () && List.rev acc = payloads
        | Error _ -> false
      in
      collect 0 [])

let test_frame_errors () =
  (* Truncated: a frame promising more bytes than the stream holds is
     incomplete (wait for more), and EOF there is RSM-S002. *)
  let framed = Protocol.frame "{\"v\":1}" in
  let truncated = buffer_of (String.sub framed 0 (String.length framed - 3)) in
  (match Protocol.next_frame truncated ~offset:0 with
  | Ok None -> ()
  | _ -> fail "truncated frame should be incomplete, not an error");
  (match Protocol.finish truncated ~offset:0 with
  | Error { code = "RSM-S002"; _ } -> ()
  | _ -> fail "EOF mid-frame should be RSM-S002");
  (* Oversized: a length prefix beyond max_frame is RSM-S001. *)
  let oversized = buffer_of ("\xff\xff\xff\xff" ^ "junk") in
  (match Protocol.next_frame oversized ~offset:0 with
  | Error { code = "RSM-S001"; _ } -> ()
  | _ -> fail "oversized frame should be RSM-S001");
  (* Garbage: bytes that are not JSON are RSM-S003. *)
  (match Protocol.decode_request "not json at all" with
  | Error { code = "RSM-S003"; _ } -> ()
  | _ -> fail "non-JSON payload should be RSM-S003");
  (* Shape: valid JSON that is not a request is RSM-S004. *)
  (match Protocol.decode_request "{\"v\":1,\"kind\":\"nonsense\"}" with
  | Error { code = "RSM-S004"; _ } -> ()
  | _ -> fail "mis-shaped request should be RSM-S004");
  match Protocol.decode_event "[1,2,3]" with
  | Error { code = "RSM-S004"; _ } -> ()
  | _ -> fail "mis-shaped event should be RSM-S004"

let test_exit_code_mapping () =
  check int "done carries its own code" 2
    (Client.exit_code_of_terminal
       (Protocol.Done
          { Protocol.outcome = "invalid-config"; exit_code = 2; cached = false;
            attempts = 1; detail = None; metrics = None; checkpoint = None }));
  check int "admission rejection is 5" 5
    (Client.exit_code_of_terminal (Protocol.Rejected Protocol.Over_quota));
  check int "bad request is 2" 2
    (Client.exit_code_of_terminal
       (Protocol.Rejected (Protocol.Bad_request "no")));
  check int "protocol error is 3" 3
    (Client.exit_code_of_terminal
       (Protocol.Protocol_error { code = "RSM-S003"; detail = "" }));
  check int "unreachable server is 4"
    4
    (Client.exit_code_of_error (Client.Refused "ECONNREFUSED"))

(* --- the client against split frames ---------------------------------- *)

(* Run [Client.converse_raw] against a one-connection fake peer: it
   reads the request whole, then writes [pieces] with a pause between
   them, so the client's reads see the stream split where they fall,
   and hangs up. *)
let converse_with_peer pieces =
  (* a client that stops reading early fails the test, not the run *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let socket = Filename.temp_file "resim_peer" ".sock" in
  Sys.remove socket;
  let request =
    Protocol.frame
      (Protocol.encode_request
         { Protocol.client = "test"; body = Protocol.Status })
  in
  let listen_fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
  Unix.bind listen_fd (ADDR_UNIX socket);
  Unix.listen listen_fd 1;
  let peer =
    Domain.spawn (fun () ->
        let fd, _ = Unix.accept listen_fd in
        let buffer = Bytes.create (String.length request) in
        let rec read_request got =
          if got < Bytes.length buffer then
            match Unix.read fd buffer got (Bytes.length buffer - got) with
            | 0 -> ()
            | read -> read_request (got + read)
        in
        read_request 0;
        List.iter
          (fun piece ->
            Unix.sleepf 0.001;
            ignore (Unix.write_substring fd piece 0 (String.length piece)))
          pieces;
        Unix.close fd)
  in
  let events = ref [] in
  let result =
    Client.converse_raw ~on_event:(fun e -> events := e :: !events) ~socket
      request
  in
  Domain.join peer;
  Unix.close listen_fd;
  Sys.remove socket;
  (result, List.rev !events)

(* [stream] cut into pieces of the given sizes, cycling through them. *)
let cut sizes stream =
  let n = String.length stream in
  let rec go at = function
    | _ when at >= n -> []
    | [] -> go at sizes
    | size :: rest ->
        let len = min size (n - at) in
        String.sub stream at len :: go (at + len) rest
  in
  go 0 sizes

let test_client_split_frames () =
  let framed event = Protocol.frame (Protocol.encode_event event) in
  let metrics =
    String.concat ""
      (List.init 6000 (fun i -> Printf.sprintf "{\"line\": %d}\n" i))
  in
  let events =
    [ Protocol.Accepted { job_id = 7 };
      Protocol.Progress { completed = 1; total = 2; label = tricky };
      Protocol.Done
        { Protocol.outcome = "ok"; exit_code = 0; cached = false;
          attempts = 1; detail = None; metrics = Some metrics;
          checkpoint = None } ]
  in
  let done_frame = framed (List.nth events 2) in
  check bool "the done frame is larger than 64 KiB" true
    (String.length done_frame > 65536);
  let head = framed (List.nth events 0) ^ framed (List.nth events 1) in
  (match
     converse_with_peer
       (cut [ 1 ] head @ cut [ 3; 4093; 7; 8191; 1; 65537 ] done_frame)
   with
  | Ok terminal, seen ->
      check bool "every event decodes" true (seen = events);
      check bool "the terminal event is the done" true
        (terminal = List.nth events 2)
  | Error error, _ -> fail (Client.error_to_string error));
  let closed =
    Error
      (Client.Transport "server closed the stream before a terminal event")
  in
  check bool "the stream ends mid-header" true
    (fst (converse_with_peer [ head; String.sub done_frame 0 2 ]) = closed);
  check bool "the stream ends mid-payload" true
    (fst
       (converse_with_peer
          (cut [ 5; 1000 ] (head ^ String.sub done_frame 0 40_000)))
    = closed);
  match converse_with_peer [ "\xff\xff"; "\xff\xff" ] with
  | Error (Client.Malformed { code = "RSM-S001"; _ }), [] -> ()
  | _ -> fail "an oversized header should be Malformed RSM-S001"

(* --- in-process server ---------------------------------------------- *)

let fresh_socket () =
  let path = Filename.temp_file "resimd" ".sock" in
  Sys.remove path;
  path

let wait_ready socket =
  let rec go tries =
    if tries > 200 then fail "server did not come up"
    else
      match
        Client.converse ~socket { Protocol.client = "probe"; body = Protocol.Status }
      with
      | Ok _ -> ()
      | Error _ ->
          Unix.sleepf 0.05;
          go (tries + 1)
  in
  go 0

(* Run [f] against a live in-process server, then drain it with the
   same signal a real deployment would use. *)
let with_server config f =
  let handle = Domain.spawn (fun () -> Server.run config) in
  Fun.protect
    ~finally:(fun () ->
      Unix.kill (Unix.getpid ()) Sys.sigterm;
      match Domain.join handle with
      | Ok () -> ()
      | Error message -> fail ("server exited with: " ^ message))
    (fun () ->
      wait_ready config.Server.socket_path;
      f config.Server.socket_path)

let submit_ok socket request =
  match Client.converse ~socket request with
  | Ok event -> event
  | Error error -> fail (Client.error_to_string error)

let simulate_request ?(client = "test") ?(scale = 200) kernel =
  { Protocol.client;
    body =
      Protocol.Simulate
        { Protocol.kernel;
          scale = Some scale;
          trace = None;
          config = Protocol.reference_spec;
          max_cycles = None;
          timeout = None;
          sample = None } }

(* Older clients may still send a [scheduler] config member; it is
   ignored like any unknown member, so the request decodes to the one
   it was spliced into. *)
let test_scheduler_member_ignored () =
  let request = simulate_request "gzip" in
  let encoded = Protocol.encode_request request in
  let needle = "\"base\":\"reference\"" in
  let rec find i =
    if String.sub encoded i (String.length needle) = needle then
      i + String.length needle
    else find (i + 1)
  in
  let at = find 0 in
  let spliced =
    String.sub encoded 0 at ^ ",\"scheduler\":\"scan\""
    ^ String.sub encoded at (String.length encoded - at)
  in
  check bool "decodes to the same request" true
    (Protocol.decode_request spliced = Ok request)

let test_crash_recovery () =
  let socket = fresh_socket () in
  let config =
    { (Server.default_config ~socket_path:socket) with
      Server.workers = 1;
      retries = 2;
      backoff = 0.01;
      test_hooks = true }
  in
  with_server config (fun socket ->
      (* Kill the only worker; the job must come back [crash] after
         the retry budget (1 first run + 2 retries), not hang. *)
      (match
         submit_ok socket
           { Protocol.client = "test"; body = Protocol.Crash_worker }
       with
      | Protocol.Done payload ->
          check string "crash outcome" "crash" payload.Protocol.outcome;
          check int "crash exit code" 3 payload.Protocol.exit_code;
          check int "attempts = 1 + retries" 3 payload.Protocol.attempts
      | _ -> fail "crash-worker should end in a done event");
      (* The supervisor must have respawned a worker: the queue still
         drains real work afterwards. *)
      (match submit_ok socket (simulate_request "gzip") with
      | Protocol.Done payload ->
          check string "post-crash simulate" "ok" payload.Protocol.outcome
      | _ -> fail "post-crash simulate should complete");
      match
        submit_ok socket { Protocol.client = "test"; body = Protocol.Status }
      with
      | Protocol.Status_report { counters; _ } ->
          check (Alcotest.list string) "counter names, in report order"
            [ "accepted"; "rejected"; "shed"; "retried"; "cache_hits";
              "cache_misses"; "completed"; "failed"; "malformed";
              "worker_restarts" ]
            (List.map fst counters);
          let count name = List.assoc name counters in
          check bool "restarts recorded" true (count "worker_restarts" >= 3);
          check bool "retries recorded" true (count "retried" >= 2)
      | _ -> fail "status should report counters")

(* A cache dir that does not exist yet: the daemon creates it. *)
let fresh_cache_dir () =
  let dir = Filename.temp_file "resimd" ".cache" in
  Sys.remove dir;
  dir

let remove_dir dir =
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Unix.rmdir dir

let cached_server cache_dir =
  { (Server.default_config ~socket_path:(fresh_socket ())) with
    Server.workers = 1;
    cache_dir = Some cache_dir }

let test_quota_and_cache () =
  let cache_dir = fresh_cache_dir () in
  with_server (cached_server cache_dir) (fun socket ->
      (* Identical resubmission is a content-addressed cache hit. *)
      (match submit_ok socket (simulate_request "gzip") with
      | Protocol.Done payload ->
          check bool "first run not cached" false payload.Protocol.cached
      | _ -> fail "first simulate should complete");
      match submit_ok socket (simulate_request "gzip") with
      | Protocol.Done payload ->
          check bool "resubmission is a cache hit" true payload.Protocol.cached;
          check string "cached outcome" "ok" payload.Protocol.outcome;
          check bool "cached metrics preserved" true
            (payload.Protocol.metrics <> None)
      | _ -> fail "cached simulate should complete");
  check bool "cache entry persisted" true
    (Array.length (Sys.readdir cache_dir) > 0);
  remove_dir cache_dir

let done_payload = function
  | Protocol.Done payload -> payload
  | _ -> fail "expected a done event"

(* The persisted entry of [request] under [cache_dir]. *)
let cache_entry cache_dir (request : Protocol.request) =
  let key = Option.get (Resim_serve.Exec.cache_key request.Protocol.body) in
  Filename.concat cache_dir (key ^ ".json")

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* A persisted entry that does not decode is a miss: the job runs, its
   result replaces the entry, and the next submission hits. *)
let test_corrupt_cache_entry () =
  let cache_dir = fresh_cache_dir () in
  let request = simulate_request "gzip" in
  let entry = cache_entry cache_dir request in
  Unix.mkdir cache_dir 0o755;
  Out_channel.with_open_bin entry (fun oc ->
      output_string oc "{\"event\":\"done\",\x00garbage");
  with_server (cached_server cache_dir) (fun socket ->
      let first = done_payload (submit_ok socket request) in
      check bool "a corrupt entry is a miss" false first.Protocol.cached;
      check string "the job runs" "ok" first.Protocol.outcome;
      check string "its result replaces the entry"
        (Protocol.encode_event (Protocol.Done first))
        (read_file entry);
      check bool "the next submission hits" true
        (done_payload (submit_ok socket request)).Protocol.cached);
  remove_dir cache_dir

(* A second daemon on the first one's cache dir answers from disk with
   the first reply marked cached; the entry is the first reply's [done]
   event as it was sent. *)
let test_cache_survives_restart () =
  let cache_dir = fresh_cache_dir () in
  let request = simulate_request "gzip" in
  let first =
    with_server (cached_server cache_dir) (fun socket ->
        done_payload (submit_ok socket request))
  in
  check bool "first run not cached" false first.Protocol.cached;
  check string "the entry is the encoded done event"
    (Protocol.encode_event (Protocol.Done first))
    (read_file (cache_entry cache_dir request));
  let second =
    with_server (cached_server cache_dir) (fun socket ->
        submit_ok socket request)
  in
  check bool "the restarted daemon replies with the first result, cached"
    true
    (second = Protocol.Done { first with Protocol.cached = true });
  remove_dir cache_dir

(* --- raw frames against a live server --------------------------------- *)

(* Write [pieces] to a fresh connection, half-close it, and return
   every event the server sends before it closes the stream. *)
let raw_exchange socket pieces =
  let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.connect fd (ADDR_UNIX socket);
      List.iter
        (fun piece ->
          let rec go at =
            if at < String.length piece then
              go (at + Unix.write_substring fd piece at (String.length piece - at))
          in
          go 0)
        pieces;
      Unix.shutdown fd SHUTDOWN_SEND;
      let received = Buffer.create 256 in
      let chunk = Bytes.create 4096 in
      let rec slurp () =
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | n ->
            Buffer.add_subbytes received chunk 0 n;
            slurp ()
      in
      slurp ();
      let rec events offset acc =
        match Protocol.next_frame received ~offset with
        | Ok (Some (payload, next)) -> (
            match Protocol.decode_event payload with
            | Ok event -> events next (event :: acc)
            | Error error -> fail (Protocol.frame_error_to_string error))
        | Ok None -> List.rev acc
        | Error error -> fail (Protocol.frame_error_to_string error)
      in
      events 0 [])

let protocol_error_code = function
  | [ Protocol.Protocol_error { code; _ } ] -> code
  | _ -> fail "expected exactly one protocol error"

let malformed_count socket =
  match submit_ok socket { Protocol.client = "test"; body = Protocol.Status } with
  | Protocol.Status_report { counters; _ } -> List.assoc "malformed" counters
  | _ -> fail "status should report counters"

(* A 4 MiB payload arriving 4 KiB at a time is split once it is whole:
   not JSON, so RSM-S003. An oversized header is refused at once. *)
let test_large_garbage_frame () =
  let config = Server.default_config ~socket_path:(fresh_socket ()) in
  with_server config (fun socket ->
      let size = 4 lsl 20 in
      let framed = Protocol.frame (String.make size 'x') in
      let pieces =
        List.init
          ((String.length framed + 4095) / 4096)
          (fun i ->
            String.sub framed (i * 4096)
              (min 4096 (String.length framed - (i * 4096))))
      in
      check string "a 4 MiB non-JSON frame is RSM-S003" "RSM-S003"
        (protocol_error_code (raw_exchange socket pieces));
      check string "an oversized header is RSM-S001" "RSM-S001"
        (protocol_error_code (raw_exchange socket [ "\xff\xff\xff\xff" ])))

(* One request per connection: the first frame is answered, the second
   is RSM-S004. *)
let test_second_frame () =
  let config = Server.default_config ~socket_path:(fresh_socket ()) in
  with_server config (fun socket ->
      let status =
        Protocol.frame
          (Protocol.encode_request
             { Protocol.client = "test"; body = Protocol.Status })
      in
      match raw_exchange socket [ status ^ Protocol.frame "{}" ] with
      | [ Protocol.Status_report _; Protocol.Protocol_error { code; _ } ] ->
          check string "the second frame is RSM-S004" "RSM-S004" code
      | _ -> fail "expected the status reply, then RSM-S004")

(* A peer that dies mid-frame gets no reply; the counter records it. *)
let test_truncated_frame () =
  let config = Server.default_config ~socket_path:(fresh_socket ()) in
  with_server config (fun socket ->
      let framed = Protocol.frame (String.make 100 'x') in
      check int "no reply to a truncated frame" 0
        (List.length (raw_exchange socket [ String.sub framed 0 14 ]));
      check int "the truncated frame is malformed" 1 (malformed_count socket))

(* A client may half-close its write side once its request is sent
   ([raw_exchange] does): the daemon still delivers the job's [done]. *)
let test_half_closed_client () =
  let config = Server.default_config ~socket_path:(fresh_socket ()) in
  with_server config (fun socket ->
      let request =
        Protocol.frame (Protocol.encode_request (simulate_request "gzip"))
      in
      match raw_exchange socket [ request ] with
      | [ Protocol.Accepted _; Protocol.Done payload ] ->
          check string "the done event's outcome" "ok" payload.Protocol.outcome
      | events ->
          failf "expected accepted, then done; got %d event(s)"
            (List.length events))

let test_admission_rejections () =
  let socket = fresh_socket () in
  let config =
    { (Server.default_config ~socket_path:socket) with
      Server.workers = 1;
      max_per_client = 0 }
  in
  with_server config (fun socket ->
      match Client.converse ~socket (simulate_request "gzip") with
      | Ok (Protocol.Rejected Protocol.Over_quota as terminal) ->
          check int "quota rejection exit code" 5
            (Client.exit_code_of_terminal terminal)
      | Ok _ -> fail "zero quota should reject with over-quota"
      | Error error -> fail (Client.error_to_string error));
  (* And with the daemon gone, the same request is a typed refusal. *)
  match Client.converse ~socket (simulate_request "gzip") with
  | Error (Client.Refused _ as error) ->
      check int "refused exit code" 4 (Client.exit_code_of_error error)
  | Ok _ -> fail "drained server should refuse connections"
  | Error other -> fail (Client.error_to_string other)

(* --- checkpoint identity (satellite 2) ------------------------------ *)

let test_engine_identity () =
  let reference = Resim.engine_identity Config.reference in
  check string "identity is deterministic" reference
    (Resim.engine_identity Config.reference);
  let narrow = { Config.reference with Config.width = 2 } in
  check bool "identity covers the configuration" true
    (reference <> Resim.engine_identity narrow);
  check bool "identity pins the build version" true
    (String.length reference > String.length Resim.version
    && String.sub reference 0 (String.length Resim.version) = Resim.version)

let test_checkpoint_identity_round_trip () =
  let stamped =
    Checkpoint.with_engine
      (Resim.engine_identity Config.reference)
      (Checkpoint.make ~cycle:64L ~cursor:7 ~counters:[ ("committed", 9L) ])
  in
  match Checkpoint.of_string (Checkpoint.to_string stamped) with
  | Error error -> fail (Checkpoint.error_to_string error)
  | Ok reread -> (
      check bool "engine line survives the round-trip" true
        (reread.Checkpoint.engine = stamped.Checkpoint.engine);
      (match Checkpoint.verify_engine
               ~expected:(Resim.engine_identity Config.reference) reread
       with
      | Ok () -> ()
      | Error _ -> fail "matching identity should verify");
      match
        Checkpoint.verify_engine
          ~expected:
            (Resim.engine_identity
               { Config.reference with Config.width = 2 })
          reread
      with
      | Error { Checkpoint.code = "RSM-K007"; _ } -> ()
      | Error _ -> fail "mismatch should be RSM-K007"
      | Ok () -> fail "foreign identity should not verify")

let test_checkpoint_legacy_unstamped () =
  (* Pre-identity handles carry no engine line and must keep loading:
     replay verification remains their guard. *)
  let legacy = Checkpoint.make ~cycle:1L ~cursor:0 ~counters:[] in
  match
    Checkpoint.verify_engine
      ~expected:(Resim.engine_identity Config.reference) legacy
  with
  | Ok () -> ()
  | Error _ -> fail "unstamped checkpoints must stay loadable"

(* --- the CLI against a subprocess daemon ------------------------------ *)

(* One daemon, driven through `resim submit`: each row's exit code, and
   the stdout lines a row names. The rows run in order, so the second
   simulate is the first one's cache hit, and the simulate after the
   crashed worker and the garbage frame shows the daemon still runs
   jobs. Then SIGTERM drains it: exit 0, and the socket file is gone. *)
let test_cli_exit_codes () =
  let cli = Test_sample.cli in
  check bool ("CLI binary present at " ^ cli) true (Sys.file_exists cli);
  let socket = fresh_socket () in
  let submit args =
    Printf.sprintf "submit --socket %s %s" (Filename.quote socket) args
  in
  let daemon =
    Unix.create_process cli
      [| cli; "serve"; "--socket"; socket; "--workers"; "1"; "--retries";
         "0"; "--test-hooks" |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  let reaped = ref false in
  let stop () =
    Unix.kill daemon Sys.sigterm;
    reaped := true;
    snd (Unix.waitpid [] daemon)
  in
  Fun.protect
    ~finally:(fun () -> if not !reaped then ignore (stop ()))
    (fun () ->
      wait_ready socket;
      let cases =
        [ ("status", submit "--status", 0, []);
          ( "clean simulate over the wire",
            submit "-k gzip -s 200 --quiet",
            0,
            [ "outcome: ok (attempt(s): 1)"; "\"ipc\"" ] );
          ( "the same simulate again is a cache hit",
            submit "-k gzip -s 200 --quiet",
            0,
            [ "[cached]" ] );
          (* a non-finite budget is no budget, as `simulate --timeout
             inf` reads it *)
          ( "infinite timeout over the wire",
            submit "-k gzip -s 200 --quiet --timeout inf",
            0,
            [] );
          ( "a sweep grid over the wire",
            submit "--sweep --kernels gzip --widths 2,4 --quiet",
            0,
            [ "\"gzip/w2\"" ] );
          ("invalid config over the wire", submit "-k gzip --base nope", 2, []);
          ( "server-side fault (crashed worker, no retries)",
            submit "--crash-worker",
            3,
            [] );
          ("garbage frame gets a typed error", submit "--send-garbage", 3, []);
          ( "a simulate after the crash and the garbage frame",
            submit "-k gzip -s 300 --quiet",
            0,
            [ "outcome: ok (attempt(s): 1)" ] );
          ( "connection refused",
            "submit --socket /nonexistent/resimd.sock --status",
            4,
            [] ) ]
      in
      List.iter
        (fun (label, args, expected, needles) ->
          let label = Printf.sprintf "%s (`resim %s`)" label args in
          let code, output, _ = Test_sample.cli_output args in
          check int label expected code;
          List.iter
            (fun needle ->
              check bool
                (Printf.sprintf "%s prints %s" label needle)
                true
                (Test_sample.contains output needle))
            needles)
        cases;
      check bool "the daemon exits 0 on SIGTERM" true
        (stop () = Unix.WEXITED 0);
      check bool "the drained daemon removed its socket" false
        (Sys.file_exists socket))

let suite =
  [ ("serve:protocol",
     [ QCheck_alcotest.to_alcotest property_request_round_trip;
       QCheck_alcotest.to_alcotest property_event_round_trip;
       QCheck_alcotest.to_alcotest property_frame_round_trip;
       Alcotest.test_case "frame error taxonomy" `Quick test_frame_errors;
       Alcotest.test_case "exit-code mapping" `Quick test_exit_code_mapping;
       Alcotest.test_case "a scheduler member is ignored" `Quick
         test_scheduler_member_ignored;
       Alcotest.test_case "request bytes are pinned" `Quick test_request_bytes;
       Alcotest.test_case "event bytes are pinned" `Quick test_event_bytes;
       Alcotest.test_case "a non-finite timeout decodes to no budget" `Quick
         test_non_finite_timeout ]);
    ("serve:client",
     [ Alcotest.test_case "split, truncated and oversized frames" `Quick
         test_client_split_frames ]);
    ("serve:server",
     [ Alcotest.test_case "crashed worker: retry budget then crash outcome"
         `Slow test_crash_recovery;
       Alcotest.test_case "result cache hits on resubmission" `Slow
         test_quota_and_cache;
       Alcotest.test_case "quota rejection and refused connection" `Slow
         test_admission_rejections;
       Alcotest.test_case "a corrupt cache entry is a miss, then replaced"
         `Slow test_corrupt_cache_entry;
       Alcotest.test_case "a restarted daemon hits the persisted cache" `Slow
         test_cache_survives_restart;
       Alcotest.test_case "a 4 MiB non-JSON frame in 4 KiB pieces is RSM-S003"
         `Slow test_large_garbage_frame;
       Alcotest.test_case "a request, then a second frame: reply, then RSM-S004"
         `Slow test_second_frame;
       Alcotest.test_case "a truncated frame, then EOF, counts as malformed"
         `Slow test_truncated_frame;
       Alcotest.test_case "a half-closed client gets accepted, then done"
         `Slow test_half_closed_client ]);
    ("serve:checkpoint-identity",
     [ Alcotest.test_case "engine identity is config-sensitive" `Quick
         test_engine_identity;
       Alcotest.test_case "stamped handles round-trip and verify" `Quick
         test_checkpoint_identity_round_trip;
       Alcotest.test_case "legacy unstamped handles stay loadable" `Quick
         test_checkpoint_legacy_unstamped ]);
    ("serve:cli",
     [ Alcotest.test_case "serve/submit exit-code table" `Slow
         test_cli_exit_codes ]) ]
