(* Measurement primitives: the monotonic clock, order statistics,
   child processes with peak-RSS polling, and in-memory spans. *)

let now_ns () = Monotonic_clock.now ()

let seconds_between t0 t1 = Int64.to_float (Int64.sub t1 t0) *. 1e-9
let seconds_since t0 = seconds_between t0 (now_ns ())

(* --- order statistics ---------------------------------------------- *)

let sorted samples =
  let a = Array.copy samples in
  Array.sort Float.compare a;
  a

let median samples =
  let a = sorted samples in
  match Array.length a with
  | 0 -> nan
  | n when n land 1 = 1 -> a.(n / 2)
  | n -> (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Quartiles by the same rule as Python's [statistics.quantiles(data,
   n=4)] (method "exclusive"), so spreads printed here match the ones a
   reader computes from the raw values. *)
let quartiles samples =
  let a = sorted samples in
  let n = Array.length a in
  if n = 0 then (nan, nan)
  else if n = 1 then (a.(0), a.(0))
  else
    let m = n + 1 in
    let at i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (at 1, at 3)

let mad samples =
  let m = median samples in
  median (Array.map (fun x -> Float.abs (x -. m)) samples)

(* The 95th percentile when at least ten samples lie beyond it;
   otherwise the highest percentile with ten samples beyond it (the
   maximum when there are fewer than twenty samples). Returns the value
   and its percentile. *)
let tail samples =
  let a = sorted samples in
  let n = Array.length a in
  if n = 0 then (nan, nan)
  else if n < 20 then (a.(n - 1), 100.)
  else
    let beyond = max 10 (n / 20) in
    (a.(n - beyond - 1), 100. *. float_of_int (n - beyond) /. float_of_int n)

(* --- child processes ----------------------------------------------- *)

(* Peak resident set (VmHWM, kB) of a live process; 0 once it is gone. *)
let vmhwm_kb pid =
  match open_in (Printf.sprintf "/proc/%d/status" pid) with
  | exception Sys_error _ -> 0
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec scan () =
            match input_line ic with
            | exception End_of_file -> 0
            | line when String.starts_with ~prefix:"VmHWM:" line ->
                Scanf.sscanf
                  (String.sub line 6 (String.length line - 6))
                  " %d" Fun.id
            | _ -> scan ()
          in
          try scan () with Scanf.Scan_failure _ | End_of_file -> 0)

(* Children still running; the watchdog and [at_exit] kill them. *)
let live : int list ref = ref []

let spawn ?(stdout = "/dev/null") ?(stderr = "/dev/null") argv =
  let open_out path =
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let out = open_out stdout and err = open_out stderr in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close out;
        Unix.close err)
      (fun () -> Unix.create_process argv.(0) argv Unix.stdin out err)
  in
  live := pid :: !live;
  pid

let reaped pid = live := List.filter (fun p -> p <> pid) !live

let rec waitpid_retry flags pid =
  match Unix.waitpid flags pid with
  | result -> result
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry flags pid

let kill_and_reap pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (waitpid_retry [] pid) with Unix.Unix_error _ -> ());
  reaped pid

let kill_all () = List.iter kill_and_reap !live

type run = { status : Unix.process_status; wall_s : float; peak_kb : int }

(* Run [argv] to completion, timing it from spawn to reap and polling
   the child's VmHWM every 10 ms the way scripts/trace_smoke.sh does.
   VmHWM only grows, so the last read before exit is the peak. A child
   still running after [timeout] seconds is killed. *)
let run ?stdout ?stderr ~timeout argv =
  let t0 = now_ns () in
  let pid = spawn ?stdout ?stderr argv in
  let peak = ref 0 in
  let rec poll tick =
    match waitpid_retry [ Unix.WNOHANG ] pid with
    | 0, _ ->
        if tick mod 10 = 0 then peak := max !peak (vmhwm_kb pid);
        if seconds_since t0 > timeout then begin
          kill_and_reap pid;
          Unix.WSIGNALED Sys.sigkill
        end
        else begin
          Unix.sleepf 0.001;
          poll (tick + 1)
        end
    | _, status ->
        reaped pid;
        status
  in
  let status = poll 0 in
  { status; wall_s = seconds_since t0; peak_kb = !peak }

let succeeded e = e.status = Unix.WEXITED 0

let describe_status = function
  | Unix.WEXITED n -> Printf.sprintf "exit %d" n
  | Unix.WSIGNALED n -> Printf.sprintf "signal %d" n
  | Unix.WSTOPPED n -> Printf.sprintf "stopped %d" n

(* --- spans ---------------------------------------------------------- *)

(* A span brackets one call into a layer. Spans live in memory and are
   written out once, when the run ends; [op] groups the spans of one
   repetition of the layer pass. *)
module Span = struct
  type t = {
    id : int;
    name : string;
    op : int;
    parent : int;  (** -1 for a root *)
    start_ns : int64;
    mutable end_ns : int64;
  }

  let recorded : t list ref = ref []
  let open_stack : t list ref = ref []
  let next_id = ref 0

  let record ~op name f =
    let parent = match !open_stack with s :: _ -> s.id | [] -> -1 in
    let span =
      { id = !next_id; name; op; parent; start_ns = now_ns (); end_ns = 0L }
    in
    incr next_id;
    open_stack := span :: !open_stack;
    Fun.protect
      ~finally:(fun () ->
        span.end_ns <- now_ns ();
        open_stack := List.tl !open_stack;
        recorded := span :: !recorded)
      f

  let duration s = seconds_between s.start_ns s.end_ns

  (* A span's duration minus the part its children cover (children
     never overlap: the bench calls layers one at a time). *)
  let self_time s =
    List.fold_left
      (fun acc c -> if c.parent = s.id then acc -. duration c else acc)
      (duration s) !recorded

  (* Self times of every span called [name], in recording order. *)
  let self_times name =
    Array.of_list
      (List.filter_map
         (fun s -> if String.equal s.name name then Some (self_time s) else None)
         (List.rev !recorded))

  let write path =
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        List.iter
          (fun s ->
            Printf.fprintf oc
              "{\"id\":%d,\"name\":%s,\"op\":%d,\"parent\":%d,\"start_ns\":%Ld,\"end_ns\":%Ld}\n"
              s.id (Resim_core.Json.quote s.name) s.op s.parent s.start_ns
              s.end_ns)
          (List.rev !recorded))
end
