(* resimd: the fault-tolerant simulation job server (DESIGN.md §16).

   One accept loop (this module, single-threaded, select-driven) and
   [config.workers] worker domains around two guarded queues:

     sessions --admit--> pending --worker--> completions --> sessions

   Domain-safety story (the PR 8 resim-dsafe bar, zero annotations):

   - Everything a worker domain touches is either confined (its job's
     engine, inside [Exec]), an [Atomic.t] (stop/alive/drain flags),
     or bracketed by [Sync.with_lock shared.mutex] (the pending queue,
     the completion queue, the running-job table).
   - Everything else — client sessions and their buffers, quota and
     attempt tables, the delayed-retry list, the status counters —
     belongs to the accept loop alone and is never captured by a
     spawned closure.
   - Signal handlers only flip an [Atomic.t]; the accept loop notices
     on its next select tick and performs the actual drain, so no
     lock is ever taken from handler context.

   Supervision: a worker that dies (the [Crash_worker] test hook, or
   any escaped exception) marks its slot's alive-flag false and wakes
   the loop through the self-pipe. The loop joins the dead domain,
   requeues its in-flight job with one more attempt charged against
   the retry budget (capped, doubling backoff), spawns a replacement,
   and the queue never drains into the void. Past the budget the job
   completes as a [crash] outcome instead — degraded, not wedged.

   Degradation order under load: new lint is shed at half queue
   capacity, new sweeps at three quarters, and at capacity an arriving
   simulate evicts a queued lint (then sweep) before being refused —
   in-flight simulates are never shed. *)

module Sync = Resim_core.Sync

type config = {
  socket_path : string;
  workers : int;
  max_queue : int;
  max_per_client : int;
  retries : int;        (* extra attempts after a worker-domain death *)
  backoff : float;
  cache_dir : string option;
  test_hooks : bool;
  verbose : bool;
}

let default_config ~socket_path =
  { socket_path;
    workers = 2;
    max_queue = 64;
    max_per_client = 8;
    retries = 2;
    backoff = 0.05;
    cache_dir = None;
    test_hooks = false;
    verbose = false }

(* The crash-requeue backoff cap, seconds. *)
let max_backoff = 1.0

(* --- state shared with worker domains ----------------------------- *)

type job = {
  id : int;
  session : int;  (* session id; the accept loop resolves it *)
  client : string;
  body : Protocol.body;
  cache_key : string option;
}

type completion =
  | Finished of job * Protocol.done_payload
  | Progressed of job * int * int * string

type shared = {
  mutex : Mutex.t;
  work : Condition.t;
  pending : job Queue.t;            (* guarded by [mutex] *)
  completions : completion Queue.t; (* guarded by [mutex] *)
  running : (int, job) Hashtbl.t;   (* worker slot → job; guarded *)
  stop : bool Atomic.t;
  draining : bool Atomic.t;
  wake_w : Unix.file_descr;
  test_hooks : bool;
}

let wake shared =
  try ignore (Unix.write_substring shared.wake_w "w" 0 1)
  with Unix.Unix_error _ -> ()

(* The worker loop is the only code here that runs on a spawned
   domain: take a job under the lock, execute it cross-module, push
   the completion under the lock, wake the accept loop. Any exception
   escaping [Exec.run] ends the domain *cleanly* (no re-raise into
   [Domain.join]) with the job still parked in [running] — that is the
   signal the supervisor reads as "crashed mid-job". *)
let worker_body shared slot =
  let rec go () =
    let next =
      Sync.with_lock shared.mutex (fun () ->
          while
            Queue.is_empty shared.pending && not (Atomic.get shared.stop)
          do
            Condition.wait shared.work shared.mutex
          done;
          match Queue.take_opt shared.pending with
          | Some job ->
              Hashtbl.replace shared.running slot job;
              Some job
          | None -> None)
    in
    match next with
    | None -> ()
    | Some job ->
        let progress ~completed ~total ~label =
          Sync.with_lock shared.mutex (fun () ->
              Queue.push
                (Progressed (job, completed, total, label))
                shared.completions);
          wake shared
        in
        (* No host-transient retries inside a worker: crash retries
           belong to the supervisor, which requeues the job. *)
        let payload =
          Exec.run ~progress ~retries:0 ~backoff:0.0 ~max_backoff:0.0
            ~test_hooks:shared.test_hooks job.body
        in
        Sync.with_lock shared.mutex (fun () ->
            Hashtbl.remove shared.running slot;
            Queue.push (Finished (job, payload)) shared.completions);
        wake shared;
        go ()
  in
  go ()

let worker_main shared slot alive () =
  (try worker_body shared slot with _ -> ());
  Atomic.set alive false;
  wake shared

(* --- accept-loop state (never crosses a domain) -------------------- *)

type session = {
  sid : int;
  fd : Unix.file_descr;
  inbuf : Buffer.t;
  mutable in_pos : int;   (* bytes of [inbuf] already consumed *)
  out : string Queue.t;   (* frames to send, oldest first *)
  mutable out_pos : int;  (* bytes of the oldest frame already written *)
  mutable requested : bool;
  mutable close_after_flush : bool;
  mutable hung_up : bool;  (* the peer sent EOF; never read again *)
}

type slot = { handle : unit Domain.t; alive : bool Atomic.t }

(* The status report's counters. Every event they count happens on the
   accept loop. *)
type counters = {
  mutable accepted : int;
  mutable rejected : int;
  mutable shed : int;
  mutable retried : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable completed : int;
  mutable failed : int;
  mutable malformed : int;
  mutable worker_restarts : int;
}

let counter_list c =
  [ ("accepted", c.accepted); ("rejected", c.rejected); ("shed", c.shed);
    ("retried", c.retried); ("cache_hits", c.cache_hits);
    ("cache_misses", c.cache_misses); ("completed", c.completed);
    ("failed", c.failed); ("malformed", c.malformed);
    ("worker_restarts", c.worker_restarts) ]

type loop = {
  config : config;
  shared : shared;
  cache : Cache.t;
  listen_fd : Unix.file_descr;
  wake_r : Unix.file_descr;
  read_buf : Bytes.t;  (* every socket and self-pipe read lands here *)
  sessions : (int, session) Hashtbl.t;
  client_counts : (string, int) Hashtbl.t;
  attempts : (int, int) Hashtbl.t;  (* job id → worker-domain attempts *)
  mutable delayed : (float * job) list;  (* crash-requeue backoff *)
  slots : slot array;
  counters : counters;
  mutable next_sid : int;
  mutable next_job : int;
}

let log loop fmt =
  if loop.config.verbose then
    Printf.ksprintf (fun s -> prerr_endline ("resimd: " ^ s)) fmt
  else Printf.ksprintf ignore fmt

let send_event session event =
  Queue.push (Protocol.frame (Protocol.encode_event event)) session.out

let has_output session = not (Queue.is_empty session.out)

let session_of_job loop (job : job) =
  Hashtbl.find_opt loop.sessions job.session

let queue_depth loop =
  Sync.with_lock loop.shared.mutex (fun () -> Queue.length loop.shared.pending)
  + List.length loop.delayed

let running_count loop =
  Sync.with_lock loop.shared.mutex (fun () ->
      Hashtbl.length loop.shared.running)

let enqueue loop job =
  Sync.with_lock loop.shared.mutex (fun () ->
      Queue.push job loop.shared.pending;
      Condition.signal loop.shared.work)

let decr_client loop client =
  match Hashtbl.find_opt loop.client_counts client with
  | Some n when n > 1 -> Hashtbl.replace loop.client_counts client (n - 1)
  | Some _ -> Hashtbl.remove loop.client_counts client
  | None -> ()

(* Completion-side bookkeeping shared by the normal path, the crash
   path and eviction. *)
let finish_job loop (job : job) =
  decr_client loop job.client;
  Hashtbl.remove loop.attempts job.id

(* A job's [done] event is encoded once: a completed simulate stores
   those bytes in the cache, and the reply frames the same string. *)
let deliver_done loop (job : job) payload =
  finish_job loop job;
  let c = loop.counters in
  if payload.Protocol.exit_code = 0 then c.completed <- c.completed + 1
  else c.failed <- c.failed + 1;
  let encoded = Protocol.encode_event (Protocol.Done payload) in
  (match (job.cache_key, payload.Protocol.outcome) with
  | Some key, "ok" -> Cache.store loop.cache key encoded
  | _ -> ());
  match session_of_job loop job with
  | None -> ()  (* client hung up; the result is dropped (or cached) *)
  | Some session ->
      Queue.push (Protocol.frame encoded) session.out;
      session.close_after_flush <- true

(* --- admission ----------------------------------------------------- *)

let reject loop session rejection =
  let c = loop.counters in
  (match rejection with
  | Protocol.Shed_lint | Protocol.Shed_sweep -> c.shed <- c.shed + 1
  | _ -> c.rejected <- c.rejected + 1);
  send_event session (Protocol.Rejected rejection);
  session.close_after_flush <- true

(* At capacity, an arriving simulate evicts one *queued* lint (then
   sweep) — the victim's client gets a typed shed rejection, and
   in-flight work is never touched. *)
let evict_for_simulate loop =
  let victim =
    Sync.with_lock loop.shared.mutex (fun () ->
        let items = List.of_seq (Queue.to_seq loop.shared.pending) in
        let pick cls =
          List.find_opt
            (fun (j : job) -> Protocol.body_class j.body = cls)
            items
        in
        match
          (match pick `Lint with Some v -> Some v | None -> pick `Sweep)
        with
        | None -> None
        | Some victim ->
            Queue.clear loop.shared.pending;
            List.iter
              (fun (j : job) ->
                if j.id <> victim.id then Queue.push j loop.shared.pending)
              items;
            Some victim)
  in
  match victim with
  | None -> false
  | Some victim ->
      let rejection =
        match Protocol.body_class victim.body with
        | `Lint -> Protocol.Shed_lint
        | _ -> Protocol.Shed_sweep
      in
      loop.counters.shed <- loop.counters.shed + 1;
      finish_job loop victim;
      (match session_of_job loop victim with
      | None -> ()
      | Some session ->
          send_event session (Protocol.Rejected rejection);
          session.close_after_flush <- true);
      true

let status_event loop =
  Protocol.Status_report
    { counters = counter_list loop.counters;
      queue = queue_depth loop;
      running = running_count loop;
      workers = Array.length loop.slots;
      draining = Atomic.get loop.shared.draining }

let admit loop session (request : Protocol.request) =
  let { Protocol.client; body } = request in
  match Protocol.body_class body with
  | `Status ->
      send_event session (status_event loop);
      session.close_after_flush <- true
  | (`Simulate | `Sweep | `Lint) as cls ->
      if Atomic.get loop.shared.draining then reject loop session Protocol.Draining
      else if body = Protocol.Crash_worker && not loop.config.test_hooks then
        reject loop session
          (Protocol.Bad_request "crash-worker requires --test-hooks")
      else
        let outstanding =
          Option.value ~default:0 (Hashtbl.find_opt loop.client_counts client)
        in
        if outstanding >= loop.config.max_per_client then
          reject loop session Protocol.Over_quota
        else
          let depth = queue_depth loop in
          let shed_watermark frac =
            depth * 4 >= loop.config.max_queue * frac
          in
          if cls = `Lint && shed_watermark 2 then
            reject loop session Protocol.Shed_lint
          else if cls = `Sweep && shed_watermark 3 then
            reject loop session Protocol.Shed_sweep
          else if
            depth >= loop.config.max_queue
            && not (cls = `Simulate && evict_for_simulate loop)
          then reject loop session Protocol.Queue_full
          else
            let cache_key = Exec.cache_key body in
            match Option.bind cache_key (Cache.find loop.cache) with
            | Some frame ->
                (* the stored [done] event, already marked cached *)
                loop.counters.cache_hits <- loop.counters.cache_hits + 1;
                Queue.push frame session.out;
                session.close_after_flush <- true
            | None ->
                if Option.is_some cache_key then
                  loop.counters.cache_misses <- loop.counters.cache_misses + 1;
                let id = loop.next_job in
                loop.next_job <- id + 1;
                let job =
                  { id; session = session.sid; client; body; cache_key }
                in
                loop.counters.accepted <- loop.counters.accepted + 1;
                Hashtbl.replace loop.client_counts client (outstanding + 1);
                Hashtbl.replace loop.attempts id 1;
                send_event session (Protocol.Accepted { job_id = id });
                enqueue loop job

(* --- frame plumbing ------------------------------------------------ *)

let close_session loop session =
  Hashtbl.remove loop.sessions session.sid;
  try Unix.close session.fd with Unix.Unix_error _ -> ()

let on_frame loop session payload =
  if session.requested then begin
    (* One request per connection; a second frame is a shape error. *)
    loop.counters.malformed <- loop.counters.malformed + 1;
    send_event session
      (Protocol.Protocol_error
         { code = "RSM-S004"; detail = "a connection carries one request" });
    session.close_after_flush <- true
  end
  else begin
    session.requested <- true;
    match Protocol.decode_request payload with
    | Error error ->
        loop.counters.malformed <- loop.counters.malformed + 1;
        send_event session (Protocol.Protocol_error error);
        session.close_after_flush <- true
    | Ok request -> admit loop session request
  end

let on_readable loop session =
  let chunk = loop.read_buf in
  match Unix.read session.fd chunk 0 (Bytes.length chunk) with
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  | exception Unix.Unix_error _ -> close_session loop session
  | 0 ->
      (* EOF. Leftover bytes mean the peer died mid-frame (RSM-S002) —
         nobody to tell, but the counter records it. *)
      (match Protocol.finish session.inbuf ~offset:session.in_pos with
      | Ok () -> ()
      | Error _ -> loop.counters.malformed <- loop.counters.malformed + 1);
      if session.requested && not session.close_after_flush then
        (* An admitted job's terminal event is still to come: a client
           that half-closed after its request waits for it. A peer that
           closed fully makes that write fail, which closes the
           session. *)
        session.hung_up <- true
      else if has_output session then session.close_after_flush <- true
      else close_session loop session
  | n ->
      (* Append, then split from [in_pos]: bytes that arrived earlier
         are never copied again, so a large frame costs linear time. *)
      Buffer.add_subbytes session.inbuf chunk 0 n;
      let rec frames offset =
        match Protocol.next_frame session.inbuf ~offset with
        | Ok None -> session.in_pos <- offset
        | Ok (Some (payload, next)) ->
            on_frame loop session payload;
            frames next
        | Error error ->
            session.in_pos <- offset;
            loop.counters.malformed <- loop.counters.malformed + 1;
            send_event session (Protocol.Protocol_error error);
            session.close_after_flush <- true
      in
      frames session.in_pos

(* Write queued frames until the socket would block; a frame leaves
   the queue once it is written whole. *)
let on_writable loop session =
  let rec flush () =
    match Queue.peek_opt session.out with
    | None -> ()
    | Some frame -> (
        let at = session.out_pos in
        let remaining = String.length frame - at in
        match Unix.write_substring session.fd frame at remaining with
        | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
        | exception Unix.Unix_error _ -> close_session loop session
        | written when written < remaining ->
            session.out_pos <- at + written
        | _ ->
            ignore (Queue.pop session.out);
            session.out_pos <- 0;
            flush ())
  in
  flush ();
  if
    session.close_after_flush
    && (not (has_output session))
    && Hashtbl.mem loop.sessions session.sid
  then close_session loop session

let accept_clients loop =
  let rec go () =
    match Unix.accept ~cloexec:true loop.listen_fd with
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    | exception Unix.Unix_error _ -> ()
    | fd, _addr ->
        Unix.set_nonblock fd;
        let sid = loop.next_sid in
        loop.next_sid <- sid + 1;
        Hashtbl.replace loop.sessions sid
          { sid;
            fd;
            inbuf = Buffer.create 512;
            in_pos = 0;
            out = Queue.create ();
            out_pos = 0;
            requested = false;
            close_after_flush = false;
            hung_up = false };
        go ()
  in
  go ()

(* --- completions and supervision ----------------------------------- *)

let drain_completions loop =
  let batch =
    Sync.with_lock loop.shared.mutex (fun () ->
        let items = List.of_seq (Queue.to_seq loop.shared.completions) in
        Queue.clear loop.shared.completions;
        items)
  in
  List.iter
    (fun completion ->
      match completion with
      | Progressed (job, completed, total, label) -> (
          match session_of_job loop job with
          | None -> ()
          | Some session ->
              send_event session
                (Protocol.Progress { completed; total; label }))
      | Finished (job, payload) ->
          let attempts_so_far =
            Option.value ~default:payload.Protocol.attempts
              (Hashtbl.find_opt loop.attempts job.id)
          in
          let payload =
            { payload with
              Protocol.attempts = max payload.Protocol.attempts attempts_so_far }
          in
          deliver_done loop job payload)
    batch

let spawn_slot loop i =
  let alive = Atomic.make true in
  let handle = Domain.spawn (worker_main loop.shared i alive) in
  loop.slots.(i) <- { handle; alive }

(* A dead slot with a job still parked in [running] is a crash: join
   the domain, requeue (with backoff) or report, respawn. A dead slot
   with no job is a clean stop-drain exit. *)
let supervise loop =
  Array.iteri
    (fun i slot ->
      if not (Atomic.get slot.alive) then begin
        Domain.join slot.handle;
        let crashed =
          Sync.with_lock loop.shared.mutex (fun () ->
              match Hashtbl.find_opt loop.shared.running i with
              | None -> None
              | Some job ->
                  Hashtbl.remove loop.shared.running i;
                  Some job)
        in
        (match crashed with
        | None -> ()
        | Some job ->
            let attempts_so_far =
              Option.value ~default:1 (Hashtbl.find_opt loop.attempts job.id)
            in
            if attempts_so_far <= loop.config.retries then begin
              Hashtbl.replace loop.attempts job.id (attempts_so_far + 1);
              loop.counters.retried <- loop.counters.retried + 1;
              let delay =
                Float.min max_backoff
                  (loop.config.backoff
                  *. (2. ** float_of_int (attempts_so_far - 1)))
              in
              log loop "worker %d died on job %d; retry in %.2fs" i job.id
                delay;
              loop.delayed <-
                (Unix.gettimeofday () +. delay, job) :: loop.delayed
            end
            else
              deliver_done loop job
                { Protocol.outcome = "crash";
                  exit_code = 3;
                  cached = false;
                  attempts = attempts_so_far;
                  detail =
                    Some
                      (Printf.sprintf
                         "worker domain died %d time(s) running this job"
                         attempts_so_far);
                  metrics = None;
                  checkpoint = None });
        if not (Atomic.get loop.shared.stop) then begin
          loop.counters.worker_restarts <- loop.counters.worker_restarts + 1;
          log loop "respawning worker %d" i;
          spawn_slot loop i
        end
      end)
    loop.slots

let promote_delayed loop =
  let now = Unix.gettimeofday () in
  let due, still = List.partition (fun (at, _) -> at <= now) loop.delayed in
  loop.delayed <- still;
  List.iter (fun (_, job) -> enqueue loop job) due

(* --- socket lifecycle ---------------------------------------------- *)

let claim_socket path =
  if Sys.file_exists path then begin
    let probe = Unix.socket PF_UNIX SOCK_STREAM 0 in
    match Unix.connect probe (ADDR_UNIX path) with
    | () ->
        Unix.close probe;
        Error (Printf.sprintf "%s: a server is already listening" path)
    | exception Unix.Unix_error _ ->
        (* Stale socket from an unclean exit: reclaim it. *)
        Unix.close probe;
        (try Sys.remove path with Sys_error _ -> ());
        Ok ()
  end
  else Ok ()

(* --- main ----------------------------------------------------------- *)

let run config =
  match claim_socket config.socket_path with
  | Error message -> Error message
  | Ok () ->
      let listen_fd = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
      Unix.bind listen_fd (ADDR_UNIX config.socket_path);
      Unix.listen listen_fd 64;
      Unix.set_nonblock listen_fd;
      let wake_r, wake_w = Unix.pipe ~cloexec:true () in
      Unix.set_nonblock wake_r;
      let shared =
        { mutex = Mutex.create ();
          work = Condition.create ();
          pending = Queue.create ();
          completions = Queue.create ();
          running = Hashtbl.create 16;
          stop = Atomic.make false;
          draining = Atomic.make false;
          wake_w;
          test_hooks = config.test_hooks }
      in
      let loop =
        { config;
          shared;
          cache = Cache.create ?dir:config.cache_dir ();
          listen_fd;
          wake_r;
          read_buf = Bytes.create 65536;
          sessions = Hashtbl.create 16;
          client_counts = Hashtbl.create 16;
          attempts = Hashtbl.create 16;
          delayed = [];
          slots =
            Array.init (max 1 config.workers) (fun i ->
                let alive = Atomic.make true in
                { handle = Domain.spawn (worker_main shared i alive); alive });
          counters =
            { accepted = 0; rejected = 0; shed = 0; retried = 0;
              cache_hits = 0; cache_misses = 0; completed = 0; failed = 0;
              malformed = 0; worker_restarts = 0 };
          next_sid = 1;
          next_job = 1 }
      in
      let previous_term =
        Sys.signal Sys.sigterm
          (Sys.Signal_handle (fun _ -> Atomic.set shared.draining true))
      in
      let previous_int =
        Sys.signal Sys.sigint
          (Sys.Signal_handle (fun _ -> Atomic.set shared.draining true))
      in
      (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
       with Invalid_argument _ | Sys_error _ -> ());
      print_string
        (Printf.sprintf "resimd: listening on %s (%d workers)\n"
           config.socket_path
           (Array.length loop.slots));
      flush stdout;
      let finished = ref false in
      while not !finished do
        drain_completions loop;
        supervise loop;
        promote_delayed loop;
        let draining = Atomic.get shared.draining in
        if
          draining
          && queue_depth loop = 0
          && running_count loop = 0
        then begin
          (* Admitted work has drained: stop the workers, deliver the
             final completions, flush what we can, and leave no stale
             socket behind. *)
          Atomic.set shared.stop true;
          Sync.with_lock shared.mutex (fun () ->
              Condition.broadcast shared.work);
          Array.iter
            (fun slot -> try Domain.join slot.handle with _ -> ())
            loop.slots;
          drain_completions loop;
          Hashtbl.iter
            (fun _ session ->
              try on_writable loop session with _ -> ())
            (Hashtbl.copy loop.sessions);
          finished := true
        end
        else begin
          let reads = ref [ loop.wake_r ] in
          if not draining then reads := loop.listen_fd :: !reads;
          let writes = ref [] in
          Hashtbl.iter
            (fun _ session ->
              if not session.hung_up then reads := session.fd :: !reads;
              if has_output session then writes := session.fd :: !writes)
            loop.sessions;
          match Unix.select !reads !writes [] 0.2 with
          | exception Unix.Unix_error (EINTR, _, _) -> ()
          | readable, writable, _ ->
              if List.memq loop.wake_r readable then begin
                let rec drain () =
                  match Unix.read loop.wake_r loop.read_buf 0 256 with
                  | exception Unix.Unix_error _ -> ()
                  | 0 -> ()
                  | _ -> drain ()
                in
                drain ()
              end;
              if (not draining) && List.memq loop.listen_fd readable then
                accept_clients loop;
              let by_fd = Hashtbl.create 16 in
              Hashtbl.iter
                (fun _ session -> Hashtbl.replace by_fd session.fd session)
                loop.sessions;
              List.iter
                (fun fd ->
                  match Hashtbl.find_opt by_fd fd with
                  | Some session -> on_readable loop session
                  | None -> ())
                readable;
              List.iter
                (fun fd ->
                  match Hashtbl.find_opt by_fd fd with
                  | Some session ->
                      if Hashtbl.mem loop.sessions session.sid then
                        on_writable loop session
                  | None -> ())
                writable;
              (* Give freshly queued output a chance to flush without
                 waiting for the next select round. *)
              Hashtbl.iter
                (fun _ session ->
                  if has_output session then on_writable loop session)
                (Hashtbl.copy loop.sessions)
        end
      done;
      Hashtbl.iter
        (fun _ session ->
          try Unix.close session.fd with Unix.Unix_error _ -> ())
        loop.sessions;
      (try Unix.close listen_fd with Unix.Unix_error _ -> ());
      (try Unix.close wake_r with Unix.Unix_error _ -> ());
      (try Unix.close shared.wake_w with Unix.Unix_error _ -> ());
      (try Sys.remove config.socket_path with Sys_error _ -> ());
      Sys.set_signal Sys.sigterm previous_term;
      Sys.set_signal Sys.sigint previous_int;
      Ok ()
