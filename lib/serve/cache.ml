(* Content-addressed result cache (DESIGN.md §16).

   Key = FNV-1a over (engine identity, config hash, trace identity,
   sample spec) — {!Resim_core.Resim.engine_identity} already pins the
   build version and every configuration field, the trace component is
   either the file-content hash (for [--trace] jobs) or
   ["kernel:<name>:<scale>"] (generation is deterministic), and the
   sample spec changes which cycles are measured. Only *completed* runs
   are stored — partial (truncated) and failed outcomes never are. The
   persisted value is the encoded [done] event the run replied with;
   the value in memory is the reply a hit sends, that event marked
   [cached] and framed, so a hit writes bytes that already exist. A
   persisted entry that does not decode to a [done] event is a miss
   and never enters memory.

   Layering: [Reports.Runner] memoizes per-config traces within one
   process; this cache memoizes whole results across processes and
   clients, persisted as <dir>/<key>.json so a daemon restart keeps
   its history.

   Concurrency: every access to the in-memory table goes through
   [Sync.with_lock] — the server's accept loop is the only caller
   today, but the table is shared server state and the PR 8 bar
   (resim-dsafe) wants the guarantee in the code, not in a comment
   about current call sites. *)

module Sync = Resim_core.Sync

type t = {
  dir : string option;
  mutex : Mutex.t;
  table : (string, string) Hashtbl.t;  (* key → hit frame *)
}

let create ?dir () =
  (match dir with
  | Some dir when not (Sys.file_exists dir) ->
      (try Unix.mkdir dir 0o755 with Unix.Unix_error _ -> ())
  | _ -> ());
  { dir; mutex = Mutex.create (); table = Hashtbl.create 64 }

let key ~engine ~trace ~sample =
  Resim_core.Hash.strings
    [ engine; trace; Option.value ~default:"" sample ]

let path_of t key =
  Option.map (fun dir -> Filename.concat dir (key ^ ".json")) t.dir

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          match really_input_string ic (in_channel_length ic) with
          | data -> Some data
          | exception (Sys_error _ | End_of_file) -> None)

(* The frame a hit replies with, built once per entry; [None] when
   [encoded] is not a [done] event. *)
let hit_frame encoded =
  match Protocol.decode_event encoded with
  | Ok (Protocol.Done payload) ->
      Some
        (Protocol.frame
           (Protocol.encode_event
              (Protocol.Done { payload with Protocol.cached = true })))
  | Ok _ | Error _ -> None

let remember t key frame =
  Sync.with_lock t.mutex (fun () -> Hashtbl.replace t.table key frame)

let find t key =
  match Sync.with_lock t.mutex (fun () -> Hashtbl.find_opt t.table key) with
  | Some frame -> Some frame
  | None ->
      let frame =
        Option.bind (Option.bind (path_of t key) read_file) hit_frame
      in
      Option.iter (remember t key) frame;
      frame

let store t key encoded =
  Option.iter (remember t key) (hit_frame encoded);
  match path_of t key with
  | None -> ()
  | Some path ->
      (* Write-then-rename so a crashed daemon never leaves a torn
         entry for the next one to trust. *)
      let tmp = path ^ ".tmp" in
      (try
         let oc = open_out_bin tmp in
         Fun.protect
           ~finally:(fun () -> close_out_noerr oc)
           (fun () -> output_string oc encoded);
         Sys.rename tmp path
       with Sys_error _ -> ())
