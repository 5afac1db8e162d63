module Isa = Resim_isa
module Bpred = Resim_bpred
module Trace = Resim_trace

type config = {
  predictor : Bpred.Predictor.config;
  wrong_path_limit : int;
  max_instructions : int;
}

let default_config =
  { predictor = Bpred.Predictor.default_config;
    wrong_path_limit = 16 + 4;
    max_instructions = 1_000_000 }

(* Fills the unfilled slots of a growing record array, and of [last]. *)
let hole =
  { Trace.Record.pc = 0;
    wrong_path = false;
    dest = 0;
    src1 = 0;
    src2 = 0;
    payload = Other { op_class = Alu } }

type t = {
  config : config;
  program : Isa.Program.t;
  machine : Isa.Machine.t;
  predictor : Bpred.Predictor.t;
  emit : Trace.Record.t -> unit;
  last : Trace.Record.t array;  (* by 2 * index + path; see [record] *)
  mutable correct : int;
  mutable wrong : int;
  mutable mispredicted : int;
  mutable halted : bool;
  mutable completed : bool;
}

let create ?(config = default_config) ~emit program =
  { config;
    program;
    machine = Isa.Machine.create ~program ();
    predictor = Bpred.Predictor.create config.predictor;
    emit;
    last = Array.make (2 * Isa.Program.length program) hole;
    correct = 0;
    wrong = 0;
    mispredicted = 0;
    halted = false;
    completed = false }

(* Records are immutable, and a record is a function of its static
   instruction, its path and its dynamic outcome. So each program index
   keeps the last record it produced on each path and hands it out again
   while the outcome repeats: an ALU, multiply or divide record always,
   a branch while it goes the same way to the same target. Memory
   records, whose address rarely repeats, are built fresh. A reused
   record costs no allocation and no promotion, which is most of what
   keeping a whole trace costs. *)
let record t ~wrong_path (obs : Isa.Interpreter.observation) =
  match obs.effective_address with
  | Some _ -> Trace.Record.of_observation ~wrong_path obs
  | None ->
      let slot = (2 * obs.index) + Bool.to_int wrong_path in
      let last = t.last.(slot) in
      let repeats =
        match (last.payload, obs.control) with
        | Other _, None -> last != hole
        | Branch b, Some c -> Bool.equal b.taken c.taken && b.target = c.target
        | (Other _ | Branch _ | Memory _), _ -> false
      in
      if repeats then last
      else begin
        let record = Trace.Record.of_observation ~wrong_path obs in
        t.last.(slot) <- record;
        record
      end

(* Checkpoint the machine, execute down the wrong path emitting tagged
   records, and roll the machine back. *)
let wrong_path_block t wrong_pc =
  let saved = Isa.Machine.checkpoint t.machine in
  Isa.Machine.set_pc t.machine wrong_pc;
  let rec loop emitted =
    if emitted < t.config.wrong_path_limit then
      match Isa.Interpreter.step t.machine t.program with
      | Halted_ -> ()
      | Stepped obs ->
          t.emit (record t ~wrong_path:true obs);
          t.wrong <- t.wrong + 1;
          loop (emitted + 1)
  in
  loop 0;
  Isa.Machine.rollback t.machine saved

let step t =
  if t.halted then false
  else if t.correct >= t.config.max_instructions then begin
    t.halted <- true;
    false
  end
  else
    match Isa.Interpreter.step t.machine t.program with
    | Halted_ ->
        t.halted <- true;
        t.completed <- true;
        false
    | Stepped obs ->
        t.correct <- t.correct + 1;
        t.emit (record t ~wrong_path:false obs);
        (match obs.control with
        | None -> ()
        | Some { kind; taken; target } ->
            let prediction =
              Bpred.Predictor.predict t.predictor ~pc:obs.index ~kind
                ~fallthrough:(obs.index + 1) ~actual_taken:taken
                ~actual_target:target
            in
            Bpred.Predictor.update t.predictor ~pc:obs.index ~kind ~taken
              ~target;
            let direction_wrong = prediction.taken <> taken in
            Bpred.Predictor.record_resolution t.predictor
              ~correct:(not direction_wrong);
            if direction_wrong && Isa.Opcode.is_cond_kind kind then begin
              t.mispredicted <- t.mispredicted + 1;
              (* The front end runs down the path the predictor chose:
                 the static target when it said taken, the fall-through
                 when it said not-taken. *)
              wrong_path_block t
                (if prediction.taken then target else obs.index + 1)
            end);
        true

let correct_path t = t.correct
let wrong_path t = t.wrong
let mispredicted_branches t = t.mispredicted

type result = {
  records : Trace.Record.t array;
  correct_path : int;
  wrong_path : int;
  mispredicted_branches : int;
  executed_to_completion : bool;
}

let run ?config program =
  let records = ref (Array.make 4096 hole) and length = ref 0 in
  let emit record =
    if !length = Array.length !records then begin
      let grown = Array.make (2 * !length) hole in
      Array.blit !records 0 grown 0 !length;
      records := grown
    end;
    !records.(!length) <- record;
    incr length
  in
  let t = create ?config ~emit program in
  while step t do () done;
  { records = Array.sub !records 0 !length;
    correct_path = t.correct;
    wrong_path = t.wrong;
    mispredicted_branches = t.mispredicted;
    executed_to_completion = t.completed }

let records ?config program = (run ?config program).records
