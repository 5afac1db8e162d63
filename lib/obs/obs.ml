module Engine = Resim_core.Engine
module Entry = Resim_core.Entry
module Record = Resim_trace.Record

type sink = {
  on_event : cycle:int64 -> Engine.event -> unit;
  on_close : unit -> unit;
}

let make_sink ~on_close on_event = { on_event; on_close }

let attach engine sinks =
  match sinks with
  | [] -> ()
  | [ sink ] ->
      (* The common one-sink case skips the fan-out iteration. *)
      Engine.set_observer engine (fun event ->
          sink.on_event ~cycle:(Engine.cycle engine) event)
  | sinks ->
      Engine.set_observer engine (fun event ->
          let cycle = Engine.cycle engine in
          List.iter (fun sink -> sink.on_event ~cycle event) sinks)

let close sinks = List.iter (fun sink -> sink.on_close ()) sinks

(* ------------------------------------------------------------------ *)
(* JSONL pipetrace. All field values are integers, short constant
   strings or taxonomy names — nothing needs escaping.                 *)

let add_int64 buffer value = Buffer.add_string buffer (Int64.to_string value)
let add_int buffer value = Buffer.add_string buffer (string_of_int value)

let add_jsonl_event buffer ~cycle event =
  Buffer.add_string buffer "{\"c\":";
  add_int64 buffer cycle;
  (match (event : Engine.event) with
  | Engine.Ev_fetch record ->
      Buffer.add_string buffer ",\"e\":\"F\",\"pc\":";
      add_int buffer record.Record.pc;
      if record.Record.wrong_path then Buffer.add_string buffer ",\"wp\":true"
  | Engine.Ev_dispatch entry ->
      Buffer.add_string buffer ",\"e\":\"D\",\"id\":";
      add_int buffer entry.Entry.id;
      Buffer.add_string buffer ",\"pc\":";
      add_int buffer entry.Entry.record.Record.pc;
      if Entry.is_wrong_path entry then Buffer.add_string buffer ",\"wp\":true"
  | Engine.Ev_issue entry ->
      Buffer.add_string buffer ",\"e\":\"I\",\"id\":";
      add_int buffer entry.Entry.id
  | Engine.Ev_complete entry ->
      Buffer.add_string buffer ",\"e\":\"W\",\"id\":";
      add_int buffer entry.Entry.id
  | Engine.Ev_commit entry ->
      Buffer.add_string buffer ",\"e\":\"C\",\"id\":";
      add_int buffer entry.Entry.id
  | Engine.Ev_squash entry ->
      Buffer.add_string buffer ",\"e\":\"X\",\"id\":";
      add_int buffer entry.Entry.id
  | Engine.Ev_flush_frontend -> Buffer.add_string buffer ",\"e\":\"FL\""
  | Engine.Ev_stall reason ->
      Buffer.add_string buffer ",\"e\":\"S\",\"r\":\"";
      Buffer.add_string buffer (Engine.stall_reason_name reason);
      Buffer.add_char buffer '"');
  Buffer.add_string buffer "}\n"

(* ------------------------------------------------------------------ *)
(* Waterfall: per-instruction stage cycles for a window of dispatched
   instructions, rendered as a Gantt chart on close. Fetch events carry
   no id, so fetch cycles queue up and marry the next dispatches in
   order (fetch order is dispatch order); a front-end flush drops the
   still-unmarried ones.                                               *)

type slot = {
  slot_id : int;
  slot_pc : int;
  slot_wrong : bool;
  mutable marks : (char * int64) list;  (* reversed *)
}

let waterfall ~window channel =
  let pending_fetches = Queue.create () in
  let slots : (int, slot) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  let traced = ref 0 in
  let mark id letter cycle =
    match Hashtbl.find_opt slots id with
    | Some slot -> slot.marks <- (letter, cycle) :: slot.marks
    | None -> ()
  in
  let on_event ~cycle event =
    match (event : Engine.event) with
    | Engine.Ev_fetch _ -> Queue.add cycle pending_fetches
    | Engine.Ev_flush_frontend -> Queue.clear pending_fetches
    | Engine.Ev_dispatch entry ->
        let fetch_cycle = Queue.take_opt pending_fetches in
        if !traced < window then begin
          incr traced;
          let id = entry.Entry.id in
          let slot =
            { slot_id = id;
              slot_pc = entry.Entry.record.Record.pc;
              slot_wrong = Entry.is_wrong_path entry;
              marks = [] }
          in
          (match fetch_cycle with
          | Some at -> slot.marks <- [ ('F', at) ]
          | None -> ());
          slot.marks <- ('D', cycle) :: slot.marks;
          Hashtbl.replace slots id slot;
          order := id :: !order
        end
    | Engine.Ev_issue entry -> mark entry.Entry.id 'I' cycle
    | Engine.Ev_complete entry -> mark entry.Entry.id 'W' cycle
    | Engine.Ev_commit entry -> mark entry.Entry.id 'C' cycle
    | Engine.Ev_squash entry -> mark entry.Entry.id 'x' cycle
    | Engine.Ev_stall _ -> ()
  in
  let render () =
    let ids = List.rev !order in
    let buffer = Buffer.create 1024 in
    let horizon =
      List.fold_left
        (fun acc id ->
          match Hashtbl.find_opt slots id with
          | Some slot ->
              List.fold_left
                (fun acc (_, cycle) -> if cycle > acc then cycle else acc)
                acc slot.marks
          | None -> acc)
        0L ids
    in
    let width = Int64.to_int horizon + 1 in
    Buffer.add_string buffer (Printf.sprintf "%-6s%-8s|" "id" "pc");
    for c = 0 to width - 1 do
      Buffer.add_char buffer (if c mod 10 = 0 then '|' else '.')
    done;
    Buffer.add_char buffer '\n';
    List.iter
      (fun id ->
        match Hashtbl.find_opt slots id with
        | None -> ()
        | Some slot ->
            Buffer.add_string buffer
              (Printf.sprintf "#%-5d%-8d|" slot.slot_id slot.slot_pc);
            let row = Bytes.make width ' ' in
            let marks = List.rev slot.marks in
            (match (marks, slot.marks) with
            | (_, first) :: _, (_, last) :: _ ->
                for c = Int64.to_int first to Int64.to_int last do
                  Bytes.set row c '.'
                done
            | _ -> ());
            List.iter
              (fun (letter, cycle) ->
                Bytes.set row (Int64.to_int cycle) letter)
              marks;
            Buffer.add_string buffer (Bytes.to_string row);
            if slot.slot_wrong then Buffer.add_string buffer "  (wrong path)";
            Buffer.add_char buffer '\n')
      ids;
    Buffer.add_string buffer
      "F fetch  D dispatch  I issue  W writeback  C commit  x squashed\n";
    Buffer.output_buffer channel buffer;
    flush channel
  in
  make_sink ~on_close:render on_event
