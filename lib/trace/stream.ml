(* Pull-based record streams over encoded trace files: the glue between
   the chunked codec cursors and Source-backed engines. A stream owns
   whatever channels it opened and reports malformed payloads as typed
   Fault.Trace_fault (same surface as the cursors), or, degraded,
   salvages past them, so robust runners handle in-memory, streamed and
   sharded traces uniformly. *)

type t = {
  next : unit -> Record.t option;
  close : unit -> unit;
  mutable closed : bool;
}

let next t = t.next ()

let close t =
  if not t.closed then begin
    t.closed <- true;
    t.close ()
  end

let make ?(close = ignore) next = { next; close; closed = false }

let io_error reason =
  { Codec.error_code = "RSM-T009"; byte_offset = 0; reason }

(* Wrap a cursor: decode errors surface as Trace_fault carrying the
   record offset and the absolute byte offset in [source], or, with
   [salvage], go to the salvage loop. *)
let of_cursor ~source ?salvage cursor =
  let next =
    match salvage with
    | Some fault -> fun () -> Codec.Cursor.next_salvaged cursor ~fault
    | None -> (
        fun () ->
          if not (Codec.Cursor.has_next cursor) then None
          else
            match Codec.Cursor.next_result cursor with
            | Ok record -> Some record
            | Error { Codec.error_code; byte_offset; reason } ->
                Fault.fail ~code:error_code
                  ~offset:(Codec.Cursor.decoded cursor)
                  (Printf.sprintf "%s: byte %d: %s" source byte_offset
                     reason))
  in
  make next

let open_cursor ?chunk ?salvage path =
  match open_in_bin path with
  | exception Sys_error reason -> Error (io_error reason)
  | ic -> (
      match Codec.Cursor.of_channel_result ?chunk ic with
      | Error error ->
          close_in_noerr ic;
          Error error
      | Ok cursor ->
          let stream = of_cursor ~source:path ?salvage cursor in
          Ok { stream with close = (fun () -> close_in_noerr ic) })

let open_file ?chunk path = open_cursor ?chunk path

(* Concatenating stream over a shard set. Shards are opened one at a
   time (constant descriptors, constant memory); each shard is a
   complete stream with its own header and fresh delta state. The
   first shard is opened eagerly so header problems come back as a
   value; failures in later shards are mid-stream faults. *)
let open_sharded ?salvage paths =
  match paths with
  | [] -> Error (io_error "empty shard list")
  | first :: rest -> (
      match open_cursor ?salvage first with
      | Error error -> Error error
      | Ok head ->
          let current = ref head in
          let remaining = ref rest in
          let rec next () =
            match (!current).next () with
            | Some record -> Some record
            | None -> (
                close !current;
                match !remaining with
                | [] -> None
                | path :: tail -> (
                    remaining := tail;
                    match open_cursor ?salvage path with
                    | Ok stream ->
                        current := stream;
                        next ()
                    | Error { Codec.error_code; byte_offset; reason } ->
                        Fault.fail ~code:error_code ~offset:0
                          (Printf.sprintf "%s: byte %d: %s" path byte_offset
                             reason)))
          in
          Ok (make ~close:(fun () -> close !current) next))

(* Open [path] as whatever it is on disk: a shard set (any shard name
   or a bare stem with a 0000 shard next to it) or a single file. *)
let open_path ?salvage path =
  match Codec.Shard.expand path with
  | Some shards -> open_sharded ?salvage shards
  | None -> open_cursor ?salvage path

let fold f init t =
  let rec loop acc =
    match next t with None -> acc | Some record -> loop (f acc record)
  in
  Fun.protect ~finally:(fun () -> close t) (fun () -> loop init)

