module Engine = Resim_core.Engine
module Sync = Resim_core.Sync

type cell = {
  cell_name : string;
  mutable calls : int;
  mutable seconds : float;
  mutable words : float;
}

type t = {
  mutex : Mutex.t;
  cells : (string, cell) Hashtbl.t;
}

let create () = { mutex = Mutex.create (); cells = Hashtbl.create 16 }

let cell t name =
  Sync.with_lock t.mutex (fun () ->
      match Hashtbl.find_opt t.cells name with
      | Some cell -> cell
      | None ->
          let cell =
            { cell_name = name; calls = 0; seconds = 0.0; words = 0.0 }
          in
          Hashtbl.add t.cells name cell;
          cell)

let charge t cell ~seconds ~words =
  Sync.with_lock t.mutex (fun () ->
      cell.calls <- cell.calls + 1;
      cell.seconds <- cell.seconds +. seconds;
      cell.words <- cell.words +. words)

(* Words allocated by the current domain so far. *)
let allocated_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let time t name f =
  let cell = cell t name in
  let t0 = Unix.gettimeofday () in
  let a0 = allocated_words () in
  Fun.protect
    ~finally:(fun () ->
      charge t cell
        ~seconds:(Unix.gettimeofday () -. t0)
        ~words:(allocated_words () -. a0))
    f

let instrument_engine t engine =
  let cells =
    List.map
      (fun phase -> (phase, cell t ("engine/" ^ Engine.phase_name phase)))
      Engine.all_phases
  in
  let cell_of phase = List.assq phase cells in
  let current = ref None in
  let last_time = ref 0.0 in
  let last_alloc = ref 0.0 in
  let close_span now alloc =
    match !current with
    | None -> ()
    | Some open_cell ->
        charge t open_cell ~seconds:(now -. !last_time)
          ~words:(alloc -. !last_alloc)
  in
  Engine.set_phase_probe engine (fun phase ->
      let now = Unix.gettimeofday () in
      let alloc = allocated_words () in
      close_span now alloc;
      current := Some (cell_of phase);
      last_time := now;
      last_alloc := alloc);
  fun () ->
    close_span (Unix.gettimeofday ()) (allocated_words ());
    current := None;
    Engine.clear_phase_probe engine

type section = {
  name : string;
  calls : int;
  seconds : float;
  allocated_words : float;
}

let sections t =
  let all =
    Sync.with_lock t.mutex (fun () ->
        Hashtbl.fold
          (fun _ cell acc ->
            { name = cell.cell_name;
              calls = cell.calls;
              seconds = cell.seconds;
              allocated_words = cell.words }
            :: acc)
          t.cells [])
  in
  List.sort
    (fun a b ->
      match compare b.seconds a.seconds with
      | 0 -> String.compare a.name b.name
      | order -> order)
    all

let pp ppf t =
  let all = sections t in
  let total = List.fold_left (fun acc s -> acc +. s.seconds) 0.0 all in
  Format.fprintf ppf "@[<v>%-20s %12s %12s %6s %12s@,"
    "section" "calls" "seconds" "%" "alloc Mwords";
  List.iter
    (fun s ->
      let share = if total > 0.0 then 100.0 *. s.seconds /. total else 0.0 in
      Format.fprintf ppf "%-20s %12d %12.4f %6.1f %12.2f@,"
        s.name s.calls s.seconds share (s.allocated_words /. 1e6))
    all;
  Format.fprintf ppf "%-20s %12s %12.4f %6.1f@]" "total" "" total 100.0

let to_json ~variant t =
  let open Resim_core.Json in
  let section s =
    Obj
      [ ("name", String s.name);
        ("calls", int s.calls);
        ("seconds", fixed 6 s.seconds);
        ("allocated_words", fixed 0 s.allocated_words) ]
  in
  to_string
    (Obj
       [ ("specialized", Bool true);
         ("variant", String variant);
         ("sections", List (List.map section (sections t))) ])
