module Trace = Resim_trace
module Bpred = Resim_bpred
module Cache = Resim_cache.Cache
module Hierarchy = Resim_cache.Hierarchy

(* Structured no-progress report: every watchdog or budget trip carries
   the engine position, so the failure is diagnosable without a
   debugger. [stuck_for] is 0 when a cycle budget (not the watchdog)
   fired. *)
type deadlock = {
  reason : string;
  at_cycle : int64;
  at_cursor : int;
  rob_occupancy : int;
  fetch_mode : string;
  stuck_for : int;
}

exception Deadlock of deadlock

let pp_deadlock ppf d =
  Format.fprintf ppf
    "%s (cycle %Ld, cursor %d, rob %d, fetch mode %s, stuck %d cycles)"
    d.reason d.at_cycle d.at_cursor d.rob_occupancy d.fetch_mode d.stuck_for

(* Monomorphic int max: Stdlib.max is a polymorphic caml_compare call,
   banned on hot paths by lint rule RSM-L002. *)
let[@inline] imax (a : int) b = if a >= b then a else b

(* Why the pipeline lost a slot or a cycle — the stall-cause taxonomy
   of the observability layer (DESIGN.md §11). Events carrying these are
   emitted at exactly the sites that bump the matching Stats counters,
   the same sites in the closure family and the reference phases (or
   proven visit-identical by the differential suite), so stall streams
   are bit-identical between the two. *)
type stall_reason =
  | Stall_ifq_empty        (* dispatch starved: nothing decoupled *)
  | Stall_rob_full
  | Stall_lsq_full
  | Stall_fu_busy          (* ready instruction, no free unit *)
  | Stall_read_port
  | Stall_write_port
  | Stall_icache           (* fetch waiting out an icache miss *)
  | Stall_misfetch_recovery
  | Stall_mispredict_recovery

let all_stall_reasons =
  [ Stall_ifq_empty; Stall_rob_full; Stall_lsq_full; Stall_fu_busy;
    Stall_read_port; Stall_write_port; Stall_icache;
    Stall_misfetch_recovery; Stall_mispredict_recovery ]

let stall_reason_name = function
  | Stall_ifq_empty -> "ifq-empty"
  | Stall_rob_full -> "rob-full"
  | Stall_lsq_full -> "lsq-full"
  | Stall_fu_busy -> "fu-busy"
  | Stall_read_port -> "rd-port"
  | Stall_write_port -> "wr-port"
  | Stall_icache -> "icache"
  | Stall_misfetch_recovery -> "misfetch"
  | Stall_mispredict_recovery -> "mispredict"

(* Observable pipeline events, for tracing tools (the Obs sinks). *)
type event =
  | Ev_fetch of Trace.Record.t
  | Ev_dispatch of Entry.t
  | Ev_issue of Entry.t
  | Ev_complete of Entry.t
  | Ev_commit of Entry.t
  | Ev_squash of Entry.t
  | Ev_flush_frontend
  | Ev_stall of stall_reason

(* Host-profiling hook: which engine phase is about to run. [Ph_account]
   closes the cycle (occupancy sampling and counters). The probe fires
   once per phase per cycle only when installed; the idle path is a
   single physical-equality test. *)
type phase =
  | Ph_commit
  | Ph_writeback
  | Ph_issue
  | Ph_dispatch
  | Ph_decouple
  | Ph_fetch
  | Ph_account

let phase_name = function
  | Ph_commit -> "commit"
  | Ph_writeback -> "writeback"
  | Ph_issue -> "issue"
  | Ph_dispatch -> "dispatch"
  | Ph_decouple -> "decouple"
  | Ph_fetch -> "fetch"
  | Ph_account -> "account"

let all_phases =
  [ Ph_commit; Ph_writeback; Ph_issue; Ph_dispatch; Ph_decouple; Ph_fetch;
    Ph_account ]

(* Which event set the pending fetch stall, attributing each burned
   penalty cycle to its cause. Icache extra cycles are charged to
   [icache_stall_cycles] at grant time; the other two accumulate into
   the recovery counters as the stall burns down. *)
type recovery_source = Recover_icache | Recover_misfetch | Recover_mispredict

type fetch_mode =
  | Normal
  | Wrong_path           (* consuming a tagged block *)
  | Awaiting_resolution  (* tagged block over; hold until the squash *)

(* A fetched record on its way to dispatch, carrying the fetch-time
   decisions that belong to the eventual ROB entry. *)
type fetched = {
  record : Trace.Record.t;
  squash_at_commit : bool;
  ras_repair : Bpred.Ras.t option;
}

type t = {
  config : Config.t;
  (* Frozen per-run constants hoisted out of the per-cycle loops at
     construction time: a [Config] field read costs a pointer chase and
     [is_optimized]/[minor_cycles_per_major]/[icache_block_bytes] a
     match per call site, and the hot phases consult them every cycle.
     The configuration cannot change for the life of the run, so they
     are plain immutable fields here (ROADMAP item 3). *)
  s_width : int;
  s_optimized : bool; (* organization = Optimized *)
  s_read_ports : int;
  s_write_ports : int;
  s_misfetch_penalty : int;
  s_misspeculation_penalty : int;
  s_block_bytes : int; (* icache block granularity for fetch grouping *)
  source : Source.t;
  mutable cursor : int;
  ifq : fetched Ring.t;
  decouple : fetched Ring.t;
  rob : Rob.t;
  lsq : Lsq.t;
  rename : Rename.t;
  fu : Fu.t;
  predictor : Bpred.Predictor.t;
  icache : Hierarchy.t;
  dcache : Hierarchy.t;
  stats : Stats.t;
  (* Plain int: an [Int64.add] per cycle would box on every increment.
     63 bits exceed any reachable run; the public API still reports
     int64, converted only when read. *)
  mutable cycle : int;
  mutable fetch_stall : int;
  mutable fetch_stall_source : recovery_source;
  mutable fetch_mode : fetch_mode;
  mutable last_fetch_block : int;
  (* Cleared while draining the pipeline at a sampling-interval
     boundary: every phase runs normally but fetch admits nothing, so
     the window empties in bounded time. *)
  mutable fetch_enabled : bool;
  mutable observer : (event -> unit) option;
  mutable phase_probe : (phase -> unit) option;
  (* Which per-cycle implementation {!step} runs: the closure family
     {!make_run} builds at creation, or the readable reference phases
     ({!use_reference}). The golden digests and the differential suite
     hold the two bit-identical. *)
  mutable stepper : stepper;
}

and stepper = Reference | Closures of (unit -> unit)

let block_bytes_of_cache = function
  | Cache.Perfect -> 64
  | Cache.Set_associative { block_bytes; _ } -> block_bytes

let config t = t.config
let stats t = t.stats
let icache t = Hierarchy.l1 t.icache
let dcache t = Hierarchy.l1 t.dcache
let cycle t = Int64.of_int t.cycle

let use_reference t = t.stepper <- Reference

(* Once per run, by reporting code; never on the per-cycle path. The
   literal [event] component names the closure family's scheduler; the
   metrics documents (and the goldens that hash them) pin the bytes. *)
let variant_name (c : Config.t) =
  (* resim-lint: allow *)
  Printf.sprintf "%s-event-w%d-rob%d-lsq%d-rp%dwp%d"
    (Config.organization_name c.organization)
    c.width c.rob_entries c.lsq_entries c.mem_read_ports c.mem_write_ports

let variant t =
  match t.stepper with
  | Reference -> None
  | Closures _ -> Some (variant_name t.config)

let set_observer t observer = t.observer <- Some observer

let notify t event =
  match t.observer with
  | Some observer -> observer event
  | None -> ()

(* Hot paths guard event construction on this test: the [Ev_*]
   constructor argument would otherwise box on every instruction even
   with no observer attached. *)
let[@inline] observed t = t.observer != None

(* Charge a stall: bump the matching counter and, when an observer is
   attached, emit the taxonomy event. The unobserved path constructs
   nothing. *)
let[@inline] charge_stall t counter reason =
  Stats.incr t.stats counter;
  if observed t then notify t (Ev_stall reason)

let set_phase_probe t probe = t.phase_probe <- Some probe
let clear_phase_probe t = t.phase_probe <- None

let[@inline] probe t ph =
  match t.phase_probe with Some f -> f ph | None -> ()

let record_at t index = Source.at t.source index

let pipeline_empty t =
  Ring.is_empty t.ifq && Ring.is_empty t.decouple && Rob.is_empty t.rob

let finished t =
  (not (Source.has t.source t.cursor)) && pipeline_empty t

(* ------------------------------------------------------------------ *)
(* Squash: branch resolution at commit flushes everything younger.     *)

let squash t (branch : Entry.t) =
  if observed t then begin
    Rob.iter
      (fun (entry : Entry.t) ->
        if entry.id > branch.id then notify t (Ev_squash entry))
      t.rob;
    notify t Ev_flush_frontend
  end;
  ignore (Rob.squash_younger t.rob ~than_id:branch.id);
  ignore (Lsq.squash_younger t.lsq ~than_id:branch.id);
  Ring.clear t.ifq;
  Ring.clear t.decouple;
  Rename.reset t.rename;
  Fu.flush t.fu;
  (match branch.ras_repair with
  | Some saved -> Bpred.Predictor.ras_restore t.predictor saved
  | None -> ());
  (* Tagged records never fetched are discarded at the resolution
     point. *)
  let rec skip_tagged () =
    match record_at t t.cursor with
    | Some record when record.Trace.Record.wrong_path ->
        t.cursor <- t.cursor + 1;
        Stats.incr t.stats Stats.discarded_wrong_path;
        skip_tagged ()
    | Some _ | None -> ()
  in
  skip_tagged ();
  t.fetch_mode <- Normal;
  (* imax semantics, tracking which cause owns the pending stall: a new
     penalty takes over attribution only when strictly larger. *)
  if t.s_misspeculation_penalty > t.fetch_stall then begin
    t.fetch_stall <- t.s_misspeculation_penalty;
    t.fetch_stall_source <- Recover_mispredict
  end;
  t.last_fetch_block <- -1

(* ------------------------------------------------------------------ *)
(* Commit: in-order, up to N per cycle; stores need a write port; the
   completed result must be from an earlier cycle (the paper's flag).   *)

let commit_phase t =
  let committed = ref 0 in
  let blocked = ref false in
  let write_ports_used = ref 0 in
  let now = t.cycle in
  while (not !blocked) && !committed < t.s_width do
    if Rob.is_empty t.rob then blocked := true
    else begin
      let entry = Rob.first t.rob in
        if (not (Entry.is_completed entry)) || entry.completed_cycle >= now
        then blocked := true
        else if Entry.is_wrong_path entry then
          (* The tag-bit protocol guarantees a squash resolves before
             any tagged record can retire; reaching here means the trace
             violated the protocol (RSM-T005 family). *)
          raise
            (Trace.Fault.Trace_fault
               { code = "RSM-T005";
                 offset = t.cursor;
                 context =
                   Printf.sprintf
                     "wrong-path instruction pc=%d reached commit at \
                      cycle %d"
                     entry.record.Trace.Record.pc t.cycle })
        else begin
          let entry_commits =
            if Entry.is_store entry then begin
              if !write_ports_used >= t.s_write_ports then begin
                charge_stall t Stats.write_port_stalls Stall_write_port;
                blocked := true;
                false
              end
              else begin
                incr write_ports_used;
                (match entry.record.payload with
                | Trace.Record.Memory { address; _ } ->
                    ignore (Hierarchy.access t.dcache ~addr:address ~write:true)
                | Trace.Record.Branch _ | Trace.Record.Other _ -> ());
                true
              end
            end
            else true
          in
          if entry_commits then begin
            Rob.drop_head t.rob;
            if Trace.Record.is_memory entry.record then
              Lsq.release_head t.lsq entry;
            if observed t then notify t (Ev_commit entry);
            Stats.incr t.stats Stats.committed;
            incr committed;
            (match entry.record.payload with
            | Trace.Record.Branch { kind; taken; target } ->
                Stats.incr t.stats Stats.committed_branches;
                if Resim_isa.Opcode.is_cond_kind kind then
                  Stats.incr t.stats Stats.committed_cond_branches;
                Bpred.Predictor.update t.predictor ~pc:entry.record.pc ~kind
                  ~taken ~target;
                if entry.squash_on_commit then begin
                  Stats.incr t.stats Stats.mispredictions;
                  squash t entry;
                  blocked := true
                end
            | Trace.Record.Memory { is_load; _ } ->
                if is_load then begin
                  Stats.incr t.stats Stats.committed_loads;
                  if entry.forwarded then
                    Stats.incr t.stats Stats.forwarded_loads
                end
                else Stats.incr t.stats Stats.committed_stores
            | Trace.Record.Other { op_class = Trace.Record.Mult }
            | Trace.Record.Other { op_class = Trace.Record.Divide } ->
                Stats.incr t.stats Stats.committed_mult_div
            | Trace.Record.Other { op_class = Trace.Record.Alu } -> ())
          end
        end
    end
  done;
  Stats.observe_commit_width t.stats !committed

(* ------------------------------------------------------------------ *)
(* Writeback: the oldest completed executions broadcast and wake their
   dependents; same-cycle issue of woken instructions is legal.         *)

let wakeup t (producer : Entry.t) =
  Rob.iter
    (fun (dependent : Entry.t) ->
      if dependent.src1_producer = producer.id then
        dependent.src1_producer <- Entry.no_producer;
      if dependent.src2_producer = producer.id then
        dependent.src2_producer <- Entry.no_producer)
    t.rob;
  let dest = producer.record.Trace.Record.dest in
  if dest > 0 then Rename.clear t.rename ~reg:dest ~id:producer.id

let writeback_phase t =
  let broadcast = ref 0 in
  let now = t.cycle in
  (* Oldest-first scan; at most N broadcasts per major cycle. *)
  (try
     Rob.iter
       (fun (entry : Entry.t) ->
         if !broadcast >= t.s_width then raise Exit;
         if Entry.is_issued entry && entry.complete_at <= now
         then begin
           entry.state <- Entry.Completed;
           entry.completed_cycle <- now;
           if observed t then notify t (Ev_complete entry);
           wakeup t entry;
           incr broadcast
         end)
       t.rob
   with Exit -> ())

(* ------------------------------------------------------------------ *)
(* Issue: schedule ready instructions onto units, oldest first.         *)

(* Issue verdicts are bare ints so the once-per-candidate-per-cycle hot
   path allocates nothing: a non-negative verdict is the operation
   latency, [verdict_no_unit] (= [Fu.no_unit]) a structural stall and
   [verdict_not_ready] unresolved sources. *)
let verdict_no_unit = Fu.no_unit
let verdict_not_ready = -2

let try_issue t ~reads_used (entry : Entry.t) =
  let now = t.cycle in
  match entry.record.payload with
  | Trace.Record.Other { op_class } ->
      if not (Entry.sources_ready entry) then verdict_not_ready
      else begin
        let request =
          match op_class with
          | Trace.Record.Alu -> Fu.Alu
          | Trace.Record.Mult -> Fu.Mult
          | Trace.Record.Divide -> Fu.Div
        in
        let verdict = Fu.try_allocate t.fu request ~now in
        if verdict < 0 then
          charge_stall t Stats.fu_busy_stalls Stall_fu_busy;
        verdict
      end
  | Trace.Record.Branch _ ->
      if not (Entry.sources_ready entry) then verdict_not_ready
      else begin
        let verdict = Fu.try_allocate t.fu Fu.Alu ~now in
        if verdict < 0 then
          charge_stall t Stats.fu_busy_stalls Stall_fu_busy;
        verdict
      end
  | Trace.Record.Memory { is_load = false; _ } ->
      (* Store: address generation on an ALU; memory write at commit. *)
      if not (Entry.sources_ready entry) then verdict_not_ready
      else if Fu.try_allocate t.fu Fu.Alu ~now >= 0 then 1
      else begin
        charge_stall t Stats.fu_busy_stalls Stall_fu_busy;
        verdict_no_unit
      end
  | Trace.Record.Memory { is_load = true; address } -> (
      match entry.load_readiness with
      | Entry.Load_not_checked | Entry.Load_blocked -> verdict_not_ready
      | Entry.Load_forward ->
          if Fu.try_allocate t.fu Fu.Alu ~now >= 0 then begin
            entry.forwarded <- true;
            1
          end
          else begin
            charge_stall t Stats.fu_busy_stalls Stall_fu_busy;
            verdict_no_unit
          end
      | Entry.Load_needs_port ->
          if !reads_used >= t.s_read_ports then begin
            charge_stall t Stats.read_port_stalls Stall_read_port;
            verdict_no_unit
          end
          else if Fu.try_allocate t.fu Fu.Alu ~now >= 0 then begin
            incr reads_used;
            let access =
              Hierarchy.access t.dcache ~addr:address ~write:false
            in
            1 + access
          end
          else begin
            charge_stall t Stats.fu_busy_stalls Stall_fu_busy;
            verdict_no_unit
          end)

let issue_entry t entry ~latency =
  entry.Entry.state <- Entry.Issued;
  entry.Entry.complete_at <- t.cycle + latency;
  if observed t then notify t (Ev_issue entry);
  Stats.incr t.stats Stats.issued

let issue_phase t =
  Fu.begin_cycle t.fu;
  let slots_used = ref 0 in
  let reads_used = ref 0 in
  let width = t.s_width in
  (* The optimized organization bars loads from the first issue slot
     (§IV.B): give slot 1 to the oldest ready non-load, if any. *)
  if t.s_optimized then begin
    try
      Rob.iter
        (fun (entry : Entry.t) ->
          if Entry.is_dispatched entry && not (Entry.is_load entry)
          then begin
            let latency = try_issue t ~reads_used entry in
            if latency >= 0 then begin
              issue_entry t entry ~latency;
              incr slots_used;
              raise Exit
            end
          end)
        t.rob
    with Exit -> ()
  end;
  (try
     Rob.iter
       (fun (entry : Entry.t) ->
         if !slots_used >= width then raise Exit;
         if Entry.is_dispatched entry then begin
           let latency = try_issue t ~reads_used entry in
           if latency >= 0 then begin
             issue_entry t entry ~latency;
             incr slots_used
           end
         end)
       t.rob
   with Exit -> ());
  Stats.observe_issue_width t.stats !slots_used

(* ------------------------------------------------------------------ *)
(* Dispatch: decouple buffer -> ROB (+ LSQ), with renaming.             *)

let dispatch_phase t =
  let count = ref 0 in
  let blocked = ref false in
  while (not !blocked) && !count < t.s_width do
    if Ring.is_empty t.decouple then begin
      (* Dispatch ends under-filled with nothing decoupled: front-end
         starvation, one charge per stalled cycle. *)
      charge_stall t Stats.ifq_empty_stalls Stall_ifq_empty;
      blocked := true
    end
    else begin
      let fetched = Ring.front t.decouple in
        if Rob.is_full t.rob then begin
          charge_stall t Stats.rob_full_stalls Stall_rob_full;
          blocked := true
        end
        else if
          Trace.Record.is_memory fetched.record && Lsq.is_full t.lsq
        then begin
          charge_stall t Stats.lsq_full_stalls Stall_lsq_full;
          blocked := true
        end
        else begin
          Ring.drop t.decouple;
          let entry = Rob.dispatch t.rob fetched.record in
          entry.squash_on_commit <- fetched.squash_at_commit;
          entry.ras_repair <- fetched.ras_repair;
          entry.src1_producer <-
            Rename.producer t.rename fetched.record.src1;
          entry.src2_producer <-
            Rename.producer t.rename fetched.record.src2;
          if fetched.record.dest > 0 then
            Rename.define t.rename ~reg:fetched.record.dest ~id:entry.id;
          if Trace.Record.is_memory fetched.record then
            Lsq.dispatch t.lsq entry;
          if observed t then notify t (Ev_dispatch entry);
          Stats.incr t.stats Stats.dispatched;
          incr count
        end
    end
  done

(* Decouple: IFQ -> decouple buffer, up to N per cycle. *)
let decouple_phase t =
  let moved = ref 0 in
  while
    !moved < t.s_width
    && (not (Ring.is_empty t.ifq))
    && not (Ring.is_full t.decouple)
  do
    Ring.push t.decouple (Ring.take t.ifq);
    incr moved
  done

(* ------------------------------------------------------------------ *)
(* Fetch.                                                              *)

(* Fetch-time handling of a control-flow record: consult the branch
   predictor unit (misfetch detection, RAS effects, statistics) and
   detect generator mispredictions from the trace structure. Returns
   the fetched-record annotations and whether the front end follows a
   taken target (ending the fetch group). *)
let fetch_control t (record : Trace.Record.t) ~kind ~taken ~target =
  let next_record = record_at t t.cursor in
  let next_is_tagged =
    (not record.wrong_path)
    && (match next_record with
       | Some next -> next.Trace.Record.wrong_path
       | None -> false)
  in
  let effective_taken =
    if next_is_tagged then
      match (kind : Resim_isa.Opcode.branch_kind) with
      | Cond -> not taken
      | Jump | Call | Ret | Indirect -> true
    else taken
  in
  let prediction =
    Bpred.Predictor.predict t.predictor ~pc:record.pc ~kind
      ~fallthrough:(record.pc + 1) ~actual_taken:taken ~actual_target:target
  in
  (* Misfetch: the front end follows a taken path but cannot supply the
     right target PC this cycle (§III). The needed target is the next
     record to fetch. *)
  let next_same_path =
    match next_record with
    | Some next ->
        next.Trace.Record.wrong_path = record.wrong_path || next_is_tagged
    | None -> false
  in
  (match next_record with
   | Some next when effective_taken && next_same_path ->
    let needed = next.Trace.Record.pc in
    let misfetch =
      match prediction.target with
      | Some supplied -> supplied <> needed
      | None -> true
    in
    if misfetch then begin
      Stats.incr t.stats Stats.misfetches;
      if t.s_misfetch_penalty > t.fetch_stall then begin
        t.fetch_stall <- t.s_misfetch_penalty;
        t.fetch_stall_source <- Recover_misfetch
      end
    end
   | Some _ | None -> ());
  let ras_repair =
    if next_is_tagged then Some (Bpred.Predictor.ras_snapshot t.predictor)
    else None
  in
  if next_is_tagged then t.fetch_mode <- Wrong_path;
  ({ record; squash_at_commit = next_is_tagged; ras_repair }, effective_taken)

(* Burn one pending fetch-stall cycle and attribute it. Icache misses
   are already charged to icache_stall_cycles in full at grant time;
   the recovery counters split the remaining penalty cycles per cause.
   Shared verbatim by the reference phases and the closure family. *)
let burn_fetch_stall t =
  t.fetch_stall <- t.fetch_stall - 1;
  Stats.incr t.stats Stats.fetch_penalty_cycles;
  (match t.fetch_stall_source with
  | Recover_icache -> ()
  | Recover_misfetch -> Stats.incr t.stats Stats.misfetch_recovery_cycles
  | Recover_mispredict ->
      Stats.incr t.stats Stats.mispredict_recovery_cycles);
  if observed t then
    notify t
      (Ev_stall
         (match t.fetch_stall_source with
         | Recover_icache -> Stall_icache
         | Recover_misfetch -> Stall_misfetch_recovery
         | Recover_mispredict -> Stall_mispredict_recovery))

let fetch_phase t =
  if not t.fetch_enabled then ()
  else if t.fetch_stall > 0 then burn_fetch_stall t
  else begin
    Source.release_below t.source t.cursor;
    let fetched_count = ref 0 in
    let stop = ref false in
    while
      (not !stop) && !fetched_count < t.s_width
      && not (Ring.is_full t.ifq)
    do
      if not (Source.has t.source t.cursor) then stop := true
      else begin
      let record = Source.get t.source t.cursor in
      (match t.fetch_mode with
      | Awaiting_resolution -> stop := true
      | Wrong_path when not record.wrong_path ->
          t.fetch_mode <- Awaiting_resolution;
          stop := true
      | Normal when record.wrong_path ->
          (* A tagged record with no pending misprediction (malformed or
             pre-truncated trace): discard it, as resolution would. *)
          t.cursor <- t.cursor + 1;
          Stats.incr t.stats Stats.discarded_wrong_path
      | Normal | Wrong_path ->
          (* Instruction cache, one access per new block. *)
          let byte_addr = Resim_isa.Instruction.byte_address record.pc in
          let block = byte_addr / t.s_block_bytes in
          let stalled_on_icache =
            if block = t.last_fetch_block then false
            else begin
              let latency =
                Hierarchy.access t.icache ~addr:byte_addr ~write:false
              in
              t.last_fetch_block <- block;
              let extra =
                latency - (Cache.timing (Hierarchy.l1 t.icache)).hit_latency
              in
              if extra > 0 then begin
                t.fetch_stall <- extra;
                t.fetch_stall_source <- Recover_icache;
                Stats.add t.stats Stats.icache_stall_cycles extra;
                true
              end
              else false
            end
          in
          if stalled_on_icache then stop := true
          else begin
            t.cursor <- t.cursor + 1;
            Stats.incr t.stats Stats.fetched;
            if record.wrong_path then
              Stats.incr t.stats Stats.fetched_wrong_path;
            let fetched, taken =
              match record.payload with
              | Trace.Record.Branch { kind; taken; target } ->
                  fetch_control t record ~kind ~taken ~target
              | Trace.Record.Memory _ | Trace.Record.Other _ ->
                  ( { record; squash_at_commit = false; ras_repair = None },
                    false )
            in
            Ring.push t.ifq fetched;
            if observed t then notify t (Ev_fetch record);
            incr fetched_count;
            (* Fetch until a control-flow bubble (§III). *)
            if taken then stop := true
          end)
      end
    done
  end

(* ------------------------------------------------------------------ *)

let reference_step t =
  if not (finished t) then begin
    probe t Ph_commit;
    commit_phase t;
    probe t Ph_writeback;
    writeback_phase t;
    Lsq.refresh t.lsq;
    probe t Ph_issue;
    issue_phase t;
    probe t Ph_dispatch;
    dispatch_phase t;
    probe t Ph_decouple;
    decouple_phase t;
    probe t Ph_fetch;
    fetch_phase t;
    probe t Ph_account;
    Stats.sample_occupancy t.stats ~ifq:(Ring.length t.ifq)
      ~rob:(Rob.length t.rob) ~lsq:(Lsq.length t.lsq);
    t.cycle <- t.cycle + 1;
    Stats.incr t.stats Stats.major_cycles
  end

let step t =
  match t.stepper with
  | Reference -> reference_step t
  | Closures run -> run ()

let fetch_mode_name t =
  match t.fetch_mode with
  | Normal -> "normal"
  | Wrong_path -> "wrong-path"
  | Awaiting_resolution -> "awaiting"

(* ------------------------------------------------------------------ *)
(* Functional warm-up (sampled simulation, DESIGN.md §13): advance the
   trace cursor, cache hierarchy and predictor/BTB/RAS state without
   any detailed timing. No ROB/LSQ/FU/event-queue work happens and the
   cycle counter does not move — only the long-lived microarchitectural
   state a later detailed interval depends on is updated. *)

(* Drain: finish every in-flight instruction without admitting new
   ones, leaving the pipeline empty at the current cursor. All phases
   run normally (commits train the predictor, stores write the dcache,
   squashes resolve), so the microarchitectural state afterwards is
   exactly what a detailed run would carry — the cycles spent are
   charged to the engine statistics like any others. Bounded by the
   in-flight work, so the guard only trips on a genuine engine bug. *)
let drain_bound = 100_000

let drain t =
  t.fetch_enabled <- false;
  let guard = ref 0 in
  (match
     while not (pipeline_empty t) do
       step t;
       incr guard;
       if !guard > drain_bound then
         raise
           (Deadlock
              { reason = "no progress draining the pipeline";
                at_cycle = Int64.of_int t.cycle;
                at_cursor = t.cursor;
                rob_occupancy = Rob.length t.rob;
                fetch_mode = fetch_mode_name t;
                stuck_for = !guard })
     done
   with
  | () -> t.fetch_enabled <- true
  | exception exn ->
      t.fetch_enabled <- true;
      raise exn);
  (* A squash during the drain may leave a pending recovery penalty;
     the functional gap that follows absorbs it by construction. *)
  t.fetch_stall <- 0;
  t.fetch_mode <- Normal

(* Process up to [max_instructions] correct-path records functionally:
   per new icache block one instruction-cache access, per branch a
   predict (exercising the BTB lookup and RAS push/pop exactly as fetch
   would) followed immediately by its commit-time training, per memory
   record one data-cache access. Wrong-path records are skipped — their
   resolution point is what the detailed engine squashes at, and no
   timing state exists here to recover. Returns the number of
   correct-path instructions consumed (short only when the trace
   ends). The pipeline must be empty ({!drain} first). *)
let functional_warmup t ~max_instructions =
  if not (pipeline_empty t) then
    invalid_arg "Engine.functional_warmup: pipeline not empty";
  if max_instructions < 0 then
    invalid_arg "Engine.functional_warmup: negative instruction count";
  t.fetch_stall <- 0;
  t.fetch_mode <- Normal;
  let warmed = ref 0 in
  let running = ref (max_instructions > 0) in
  while !running do
    Source.release_below t.source t.cursor;
    if not (Source.has t.source t.cursor) then running := false
    else begin
      let record = Source.get t.source t.cursor in
      t.cursor <- t.cursor + 1;
      if not record.Trace.Record.wrong_path then begin
        incr warmed;
        let byte_addr = Resim_isa.Instruction.byte_address record.pc in
        let block = byte_addr / t.s_block_bytes in
        if block <> t.last_fetch_block then begin
          ignore (Hierarchy.access t.icache ~addr:byte_addr ~write:false);
          t.last_fetch_block <- block
        end;
        (match record.payload with
        | Trace.Record.Branch { kind; taken; target } ->
            ignore
              (Bpred.Predictor.predict t.predictor ~pc:record.pc ~kind
                 ~fallthrough:(record.pc + 1) ~actual_taken:taken
                 ~actual_target:target);
            Bpred.Predictor.update t.predictor ~pc:record.pc ~kind ~taken
              ~target
        | Trace.Record.Memory { is_load; address } ->
            ignore
              (Hierarchy.access t.dcache ~addr:address ~write:(not is_load))
        | Trace.Record.Other _ -> ());
        if !warmed >= max_instructions then running := false
      end
    end
  done;
  !warmed

let cursor t = t.cursor

let checkpoint t =
  Checkpoint.make ~cycle:(Int64.of_int t.cycle) ~cursor:t.cursor
    ~counters:(Stats.to_assoc t.stats)

let deadlock_here t ~reason ~stuck_for =
  { reason;
    at_cycle = Int64.of_int t.cycle;
    at_cursor = t.cursor;
    rob_occupancy = Rob.length t.rob;
    fetch_mode = fetch_mode_name t;
    stuck_for }

type stop = Drained | Cycle_budget | Time_budget | Commit_target

type bounded = { final : Stats.t; stop : stop; resume : Checkpoint.t option }

(* Cycles without commit, fetch or ROB progress before [Deadlock]. *)
let watchdog = 100_000

(* How many cycles between calls of the (possibly wall-clock-reading)
   deadline closure: cheap enough to keep hot-loop overhead invisible,
   frequent enough that a timeout lands within microseconds. *)
let deadline_poll_interval = 256

let run_bounded ?max_cycles ?max_commits ?deadline t =
  (* The cycle budget, clamped to the int cycle counter's domain: an
     int64 budget at or beyond [max_int] cannot trip before the heat
     death of any real run. *)
  let cycle_budget =
    match max_cycles with
    | None -> max_int
    | Some budget ->
        if Int64.compare budget (Int64.of_int max_int) >= 0 then max_int
        else Int64.to_int budget
  in
  (* Progress watchdog on plain ints: this loop runs every cycle. *)
  let last_cursor = ref t.cursor in
  let last_committed = ref (Stats.get_int Stats.committed t.stats) in
  let last_rob = ref (Rob.length t.rob) in
  let stuck_for = ref 0 in
  let poll = ref 0 in
  let verdict = ref Drained in
  let running = ref (not (finished t)) in
  while !running do
    let budget_hit = t.cycle >= cycle_budget in
    let commits_hit =
      (not budget_hit)
      &&
      match max_commits with
      | Some target -> Stats.get_int Stats.committed t.stats >= target
      | None -> false
    in
    let deadline_hit =
      (not budget_hit) && (not commits_hit)
      &&
      match deadline with
      | Some hit ->
          poll := !poll + 1;
          if !poll >= deadline_poll_interval then begin
            poll := 0;
            hit ()
          end
          else false
      | None -> false
    in
    if budget_hit then begin
      verdict := Cycle_budget;
      running := false
    end
    else if commits_hit then begin
      verdict := Commit_target;
      running := false
    end
    else if deadline_hit then begin
      verdict := Time_budget;
      running := false
    end
    else begin
      step t;
      let committed = Stats.get_int Stats.committed t.stats in
      let rob = Rob.length t.rob in
      if t.cursor = !last_cursor && committed = !last_committed
         && rob = !last_rob
      then begin
        incr stuck_for;
        if !stuck_for > watchdog then
          raise
            (Deadlock
               (deadlock_here t ~reason:"no commit/fetch progress"
                  ~stuck_for:!stuck_for))
      end
      else begin
        stuck_for := 0;
        last_cursor := t.cursor;
        last_committed := committed;
        last_rob := rob
      end;
      if finished t then running := false
    end
  done;
  { final = t.stats;
    stop = !verdict;
    resume =
      (match !verdict with
      | Drained -> None
      | Cycle_budget | Time_budget | Commit_target -> Some (checkpoint t)) }

let run t =
  let bounded = run_bounded ~max_cycles:1_000_000_000L t in
  match bounded.stop with
  | Drained -> bounded.final
  | Cycle_budget ->
      raise (Deadlock (deadlock_here t ~reason:"exceeded max_cycles" ~stuck_for:0))
  | Time_budget | Commit_target ->
      assert false (* no deadline or commit target was installed *)

(* ------------------------------------------------------------------ *)
(* The closure family (DESIGN.md §14): the per-cycle engine every
   [Engine.t] runs. [make_run] is called once, at creation, and binds
   the engine's runtime configuration there: it resolves every
   statistics cell, queue and sub-component exactly once and defines
   the phases as local functions, so intra-cycle calls stay direct.
   This build has no flambda and compiles with [-opaque], so the
   structure of the code IS the optimization: loop state travels in
   function parameters instead of the [ref] cells the reference phases
   use, ROB walks are index loops instead of closures, and the O(1)
   Ring/Event_queue/Fu/Rename/Histogram operations are transcribed over
   their exposed representations instead of called across modules.

   Where the reference phases scan the whole ROB and LSQ every cycle
   (the paper's formulation), the closure family is event-driven: it
   touches only state that can change this cycle. A completion heap
   replaces the writeback scan, producer->dependent wakeup lists the
   broadcast scan, an id-ordered ready pool the issue scan, and loads
   are reclassified incrementally instead of by the per-cycle
   Lsq_refresh. Invariants that keep it equal to the scan:
   - broadcast selection is the N oldest entries whose execution is due,
     exactly as the oldest-first ROB scan picks them;
   - the ready pool holds exactly the entries the scan's [try_issue]
     would act on (issue, allocate a unit, or charge a port stall), in
     the same oldest-first order;
   - a load's readiness is reclassified on every change of its
     classification inputs (its own sources, an older store's
     address/data, a store's retirement), so its value at issue time
     equals the per-cycle Lsq_refresh result.

   Correctness contract: bit-identical to the reference phases above —
   same cycle count, same value in every Stats counter, same observer
   event stream in the same order, same probe sites. Commit, dispatch,
   decouple and fetch are line-by-line transcriptions of their
   reference counterparts with the accessor indirections resolved; the
   committed golden digests and the differential suite (test_golden.ml,
   test_event.ml, test_obs.ml) hold both to it. *)

let make_run (t : t) =
  (* Configuration facts, captured once as closure locals. *)
  let width = t.s_width in
  let read_ports = t.s_read_ports in
  let write_ports = t.s_write_ports in
  let alu_count = t.config.alu_count in
  let alu_latency = t.config.alu_latency in
  let mult_count = t.config.mult_count in
  let mult_latency = t.config.mult_latency in
  let div_latency = t.config.div_latency in
  let misspeculation_penalty = t.s_misspeculation_penalty in
  let optimized = t.s_optimized in
  (* Engine components, resolved once. *)
  let stats = t.stats in
  let rob = t.rob in
  let lsq = t.lsq in
  let fu = t.fu in
  let rename = t.rename in
  let ifq = t.ifq in
  let decouple = t.decouple in
  (* The event-scheduler state, the family's own: the reference phases
     scan the ROB instead. [completion] holds issued entries keyed by
     (complete_at, id); [due] holds completed executions awaiting a
     broadcast slot, keyed by (0, id) so the paper's oldest-first
     broadcast order is preserved when more than N results are due;
     [ready] is the issue pool, also in (0, id) order. Squashed entries
     are dropped lazily when popped. *)
  let completion = Event_queue.create () in
  let due = Event_queue.create () in
  let ready = Event_queue.create () in
  (* Scratch buffer the issue phase drains the ready pool into — reused
     every cycle so issue allocates no per-cycle list. Stale references
     past [candidate_count] are bounded by the ROB capacity and
     overwritten on reuse, the Ring storage policy. *)
  let candidates = ref [||] in
  let candidate_count = ref 0 in
  let source = t.source in
  let dcache = t.dcache in
  let icache = t.icache in
  let predictor = t.predictor in
  let block_bytes = t.s_block_bytes in
  let icache_hit_latency = (Cache.timing (Hierarchy.l1 icache)).hit_latency in
  (* A perfect L1 never misses, so the hierarchy walk collapses to
     three counter bumps and the constant hit latency; the closure is
     chosen once here. Real geometries keep the full access. *)
  let cache_access hierarchy =
    let l1 = Hierarchy.l1 hierarchy in
    match Cache.config l1 with
    | Cache.Perfect ->
        let c = Cache.counters l1 in
        let latency = (Cache.timing l1).hit_latency in
        fun _addr _write ->
          c.Cache.accesses <- c.Cache.accesses + 1;
          c.Cache.clock <- c.Cache.clock + 1;
          c.Cache.hits <- c.Cache.hits + 1;
          latency
    | Cache.Set_associative _ ->
        fun addr write -> Hierarchy.access hierarchy ~addr ~write
  in
  let dcache_access = cache_access dcache in
  let icache_access = cache_access icache in
  let rob_ring = rob.Rob.ring in
  let producers = rename.Rename.producers in
  let register_count = Array.length producers in
  let no_producer = Entry.no_producer in
  let no_unit = Fu.no_unit in
  let commit_widths = Stats.commit_width_histogram stats in
  let issue_widths = Stats.issue_width_histogram stats in
  (* Fetch and the end-of-trace check read a window hit inline; only a
     miss calls [Source.has], to refill or to find the end (source.mli). *)
  let[@inline] source_has index =
    let i = index - source.Source.base in
    (i >= 0 && i < source.Source.length) || Source.has source index
  in
  (* Queue operations over the exposed representations, run a
     dozen-plus times per cycle. The ring ones are transcribed from
     ring.ml ([-opaque] keeps the cross-module originals out of line in
     the default build), with the same guards and exception messages;
     the event heap's (event_queue.mli) exist only here. *)
  let ring_front r =
    if r.Ring.length = 0 then invalid_arg "Ring.front: empty";
    r.Ring.slots.(r.Ring.head)
  in
  let ring_get r i =
    if i < 0 || i >= r.Ring.length then invalid_arg "Ring.get: out of range";
    let j = r.Ring.head + i in
    r.Ring.slots.(if j >= r.Ring.capacity then j - r.Ring.capacity else j)
  in
  let ring_drop r =
    if r.Ring.length = 0 then invalid_arg "Ring.drop: empty";
    let next = r.Ring.head + 1 in
    r.Ring.head <- (if next >= r.Ring.capacity then 0 else next);
    r.Ring.length <- r.Ring.length - 1
  in
  let ring_push r value =
    if r.Ring.length = r.Ring.capacity then failwith "Ring.push: full";
    if Array.length r.Ring.slots = 0 then
      r.Ring.slots <- Array.make r.Ring.capacity value;
    let j = r.Ring.head + r.Ring.length in
    r.Ring.slots.(if j >= r.Ring.capacity then j - r.Ring.capacity else j) <-
      value;
    r.Ring.length <- r.Ring.length + 1
  in
  let eq_is_empty (q : _ Event_queue.t) = q.Event_queue.size = 0 in
  let eq_min_at (q : _ Event_queue.t) =
    if q.Event_queue.size = 0 then max_int else q.Event_queue.at.(0)
  in
  let eq_top (q : _ Event_queue.t) =
    if q.Event_queue.size = 0 then invalid_arg "Event_queue.top: empty";
    q.Event_queue.payload.(0)
  in
  (* The heap's push and drop, with the four column arrays hoisted into
     locals around the sift loops. Keys order lexicographically by
     (at, id, seq); [seq] keeps equal keys in insertion order. *)
  let eq_grow (q : Entry.t Event_queue.t) payload =
    let capacity = Array.length q.Event_queue.at in
    if q.Event_queue.size = capacity then begin
      let grown = if capacity < 8 then 16 else 2 * capacity in
      let at = Array.make grown 0 in
      let id = Array.make grown 0 in
      let seq = Array.make grown 0 in
      let payloads = Array.make grown payload in
      Array.blit q.Event_queue.at 0 at 0 q.Event_queue.size;
      Array.blit q.Event_queue.id 0 id 0 q.Event_queue.size;
      Array.blit q.Event_queue.seq 0 seq 0 q.Event_queue.size;
      Array.blit q.Event_queue.payload 0 payloads 0 q.Event_queue.size;
      q.Event_queue.at <- at;
      q.Event_queue.id <- id;
      q.Event_queue.seq <- seq;
      q.Event_queue.payload <- payloads
    end
  in
  let eq_push (q : Entry.t Event_queue.t) ~at ~id payload =
    let seq = q.Event_queue.stamp in
    q.Event_queue.stamp <- seq + 1;
    eq_grow q payload;
    let ats = q.Event_queue.at
    and ids = q.Event_queue.id
    and seqs = q.Event_queue.seq
    and payloads = q.Event_queue.payload in
    let i = ref q.Event_queue.size in
    q.Event_queue.size <- !i + 1;
    let continue_ = ref true in
    while !continue_ && !i > 0 do
      let parent = (!i - 1) / 2 in
      if
        at < ats.(parent)
        || (at = ats.(parent)
            && (id < ids.(parent)
                || (id = ids.(parent) && seq < seqs.(parent))))
      then begin
        ats.(!i) <- ats.(parent);
        ids.(!i) <- ids.(parent);
        seqs.(!i) <- seqs.(parent);
        payloads.(!i) <- payloads.(parent);
        i := parent
      end
      else continue_ := false
    done;
    ats.(!i) <- at;
    ids.(!i) <- id;
    seqs.(!i) <- seq;
    payloads.(!i) <- payload
  in
  let eq_drop (q : Entry.t Event_queue.t) =
    if q.Event_queue.size = 0 then invalid_arg "Event_queue.drop: empty";
    q.Event_queue.size <- q.Event_queue.size - 1;
    let size = q.Event_queue.size in
    if size > 0 then begin
      let ats = q.Event_queue.at
      and ids = q.Event_queue.id
      and seqs = q.Event_queue.seq
      and payloads = q.Event_queue.payload in
      let at = ats.(size)
      and id = ids.(size)
      and seq = seqs.(size) in
      let payload = payloads.(size) in
      let i = ref 0 in
      let continue_ = ref true in
      while !continue_ do
        let left = (2 * !i) + 1 in
        if left >= size then continue_ := false
        else begin
          let right = left + 1 in
          let child =
            if
              right < size
              && (ats.(right) < ats.(left)
                  || (ats.(right) = ats.(left)
                      && (ids.(right) < ids.(left)
                          || (ids.(right) = ids.(left)
                              && seqs.(right) < seqs.(left)))))
            then right
            else left
          in
          if
            ats.(child) < at
            || (ats.(child) = at
                && (ids.(child) < id
                    || (ids.(child) = id && seqs.(child) < seq)))
          then begin
            ats.(!i) <- ats.(child);
            ids.(!i) <- ids.(child);
            seqs.(!i) <- seqs.(child);
            payloads.(!i) <- payloads.(child);
            i := child
          end
          else continue_ := false
        end
      done;
      ats.(!i) <- at;
      ids.(!i) <- id;
      seqs.(!i) <- seq;
      payloads.(!i) <- payload
    end
  in
  (* Functional-unit allocation over the exposed pool record; the
     configured counts and latencies are already in scope. *)
  let alloc_alu () =
    if fu.Fu.alu_used < alu_count then begin
      fu.Fu.alu_used <- fu.Fu.alu_used + 1;
      alu_latency
    end
    else no_unit
  in
  let alloc_mult () =
    if fu.Fu.mult_used < mult_count then begin
      fu.Fu.mult_used <- fu.Fu.mult_used + 1;
      mult_latency
    end
    else no_unit
  in
  let alloc_div now =
    let busy = fu.Fu.div_busy_until in
    let rec scan i =
      if i >= Array.length busy then no_unit
      else if busy.(i) <= now then begin
        busy.(i) <- now + div_latency;
        div_latency
      end
      else scan (i + 1)
    in
    scan 0
  in
  (* Rename-table lookups over the exposed producer array. *)
  let producer_of reg =
    if reg <= 0 || reg >= register_count then no_producer
    else producers.(reg)
  in
  let observe_width (h : Histogram.t) value =
    let bins = Array.length h.Histogram.counts in
    let slot =
      if value < 0 then 0 else if value >= bins then bins - 1 else value
    in
    h.Histogram.counts.(slot) <- h.Histogram.counts.(slot) + 1;
    h.Histogram.total <- h.Histogram.total + 1
  in
  (* Statistics cells, resolved once; bumps are raw ref arithmetic. *)
  let st_committed = Stats.live Stats.committed stats in
  let st_committed_branches = Stats.live Stats.committed_branches stats in
  let st_committed_cond_branches =
    Stats.live Stats.committed_cond_branches stats
  in
  let st_committed_loads = Stats.live Stats.committed_loads stats in
  let st_committed_stores = Stats.live Stats.committed_stores stats in
  let st_committed_mult_div = Stats.live Stats.committed_mult_div stats in
  let st_mispredictions = Stats.live Stats.mispredictions stats in
  let st_forwarded_loads = Stats.live Stats.forwarded_loads stats in
  let st_dispatched = Stats.live Stats.dispatched stats in
  let st_issued = Stats.live Stats.issued stats in
  let st_fetched = Stats.live Stats.fetched stats in
  let st_fetched_wrong_path = Stats.live Stats.fetched_wrong_path stats in
  let st_discarded_wrong_path =
    Stats.live Stats.discarded_wrong_path stats
  in
  let st_icache_stall_cycles = Stats.live Stats.icache_stall_cycles stats in
  let st_major_cycles = Stats.live Stats.major_cycles stats in
  let st_write_port_stalls = Stats.live Stats.write_port_stalls stats in
  let st_read_port_stalls = Stats.live Stats.read_port_stalls stats in
  let st_fu_busy_stalls = Stats.live Stats.fu_busy_stalls stats in
  let st_ifq_empty_stalls = Stats.live Stats.ifq_empty_stalls stats in
  let st_rob_full_stalls = Stats.live Stats.rob_full_stalls stats in
  let st_lsq_full_stalls = Stats.live Stats.lsq_full_stalls stats in
  (* [charge_stall] with the cell pre-resolved. *)
  let charge cell reason =
    Stdlib.incr cell;
    if observed t then notify t (Ev_stall reason)
  in
  (* Entry and record predicates, flattened to local tag matches (the
     cross-module [Entry.is_*] helpers are out-of-line calls in a
     non-flambda dev build). *)
  let entry_is_dispatched (entry : Entry.t) =
    match entry.Entry.state with
    | Entry.Dispatched -> true
    | Entry.Issued | Entry.Completed -> false
  in
  let entry_is_issued (entry : Entry.t) =
    match entry.Entry.state with
    | Entry.Issued -> true
    | Entry.Dispatched | Entry.Completed -> false
  in
  let entry_is_completed (entry : Entry.t) =
    match entry.Entry.state with
    | Entry.Completed -> true
    | Entry.Dispatched | Entry.Issued -> false
  in
  let entry_is_load (entry : Entry.t) =
    match entry.Entry.record.Trace.Record.payload with
    | Trace.Record.Memory { is_load; _ } -> is_load
    | Trace.Record.Branch _ | Trace.Record.Other _ -> false
  in
  let entry_is_store (entry : Entry.t) =
    match entry.Entry.record.Trace.Record.payload with
    | Trace.Record.Memory { is_load; _ } -> not is_load
    | Trace.Record.Branch _ | Trace.Record.Other _ -> false
  in
  let record_is_memory (record : Trace.Record.t) =
    match record.Trace.Record.payload with
    | Trace.Record.Memory _ -> true
    | Trace.Record.Branch _ | Trace.Record.Other _ -> false
  in
  let sources_ready (entry : Entry.t) =
    entry.Entry.src1_producer < 0 && entry.Entry.src2_producer < 0
  in
  (* ---- event bookkeeping ---- *)
  let push_ready (entry : Entry.t) =
    if not entry.in_ready then begin
      entry.in_ready <- true;
      eq_push ready ~at:0 ~id:entry.id entry
    end
  in
  (* Pool membership for loads is monotone: once a load classifies as
     Forward or Needs_port it stays issuable (the value may still flip
     between those two, e.g. when the forwarding store retires first). *)
  let pool_load (load : Entry.t) =
    match load.Entry.load_readiness with
    | Entry.Load_forward | Entry.Load_needs_port -> push_ready load
    | Entry.Load_not_checked | Entry.Load_blocked -> ()
  in
  let reclassify_load (load : Entry.t) =
    Lsq.refresh_entry lsq load;
    pool_load load
  in
  (* An older store's address or data just resolved, or a store
     retired: only loads younger than it can change classification. One
     closure serves every refresh. *)
  let store_resolved (store : Entry.t) =
    Lsq.refresh_younger lsq ~than_id:store.Entry.id ~reclassified:pool_load
  in
  let store_retired () =
    Lsq.refresh_younger lsq ~than_id:(-1) ~reclassified:pool_load
  in
  (* At dispatch, hang the new entry off its producers' wakeup lists (a
     producer with a live rename mapping is necessarily still in the
     window) and seed the ready pool / LSQ classification. *)
  let register_dispatched (entry : Entry.t) =
    (* Window ids are consecutive, so the producer lookup is offset
       arithmetic from the head entry's id. *)
    let register id =
      let n = rob_ring.Ring.length in
      let index =
        if n = 0 then -1 else id - (ring_front rob_ring).Entry.id
      in
      if index < 0 || index >= n then
        (* Corrupt dependency state can only come from a malformed trace
           (register fields outside the renameable range decode to wild
           producers); surface it as a structured trace fault. *)
        raise
          (Trace.Fault.Trace_fault
             { code = "RSM-T008";
               offset = t.cursor;
               context =
                 Printf.sprintf
                   "entry #%d depends on #%d which is not in flight \
                    (cycle %d)"
                   entry.id id t.cycle })
      else begin
        let producer : Entry.t = ring_get rob_ring index in
        assert (producer.Entry.id = id);
        producer.Entry.dependents <- entry :: producer.Entry.dependents
      end
    in
    let src1 = entry.src1_producer in
    let src2 = entry.src2_producer in
    if src1 >= 0 then register src1;
    if src2 >= 0 && src2 <> src1 then register src2;
    if entry_is_load entry then begin
      if sources_ready entry then reclassify_load entry
    end
    else if sources_ready entry then push_ready entry
  in
  (* ---- squash ---- *)
  let rec mark_squashed n i than_id =
    if i < n then begin
      let entry : Entry.t = ring_get rob_ring i in
      if entry.Entry.id > than_id then entry.Entry.squashed <- true;
      mark_squashed n (i + 1) than_id
    end
  in
  let rec skip_tagged () =
    match Source.at source t.cursor with
    | Some record when record.Trace.Record.wrong_path ->
        t.cursor <- t.cursor + 1;
        Stdlib.incr st_discarded_wrong_path;
        skip_tagged ()
    | Some _ | None -> ()
  in
  let squash (branch : Entry.t) =
    mark_squashed rob_ring.Ring.length 0 branch.Entry.id;
    if observed t then begin
      let rec notify_squashed n i =
        if i < n then begin
          let entry : Entry.t = ring_get rob_ring i in
          if entry.Entry.id > branch.Entry.id then
            notify t (Ev_squash entry);
          notify_squashed n (i + 1)
        end
      in
      notify_squashed rob_ring.Ring.length 0;
      notify t Ev_flush_frontend
    end;
    ignore (Rob.squash_younger rob ~than_id:branch.Entry.id);
    ignore (Lsq.squash_younger lsq ~than_id:branch.Entry.id);
    Ring.clear ifq;
    Ring.clear decouple;
    Rename.reset rename;
    Fu.flush fu;
    (match branch.Entry.ras_repair with
    | Some saved -> Bpred.Predictor.ras_restore predictor saved
    | None -> ());
    skip_tagged ();
    t.fetch_mode <- Normal;
    if misspeculation_penalty > t.fetch_stall then begin
      t.fetch_stall <- misspeculation_penalty;
      t.fetch_stall_source <- Recover_mispredict
    end;
    t.last_fetch_block <- -1
  in
  (* ---- commit ---- *)
  let rec commit_loop committed write_ports_used =
    if committed >= width then committed
    else if rob_ring.Ring.length = 0 then committed
    else begin
      let entry = ring_front rob_ring in
      if (not (entry_is_completed entry)) || entry.completed_cycle >= t.cycle
      then committed
      else if entry.Entry.record.Trace.Record.wrong_path then
        raise
          (Trace.Fault.Trace_fault
             { code = "RSM-T005";
               offset = t.cursor;
               context =
                 Printf.sprintf
                   "wrong-path instruction pc=%d reached commit at cycle %d"
                   entry.record.Trace.Record.pc t.cycle })
      else if entry_is_store entry && write_ports_used >= write_ports
      then begin
        charge st_write_port_stalls Stall_write_port;
        committed
      end
      else begin
        let write_ports_used =
          if entry_is_store entry then begin
            (match entry.record.payload with
            | Trace.Record.Memory { address; _ } ->
                ignore (dcache_access address true)
            | Trace.Record.Branch _ | Trace.Record.Other _ -> ());
            write_ports_used + 1
          end
          else write_ports_used
        in
        ring_drop rob_ring;
        if record_is_memory entry.record then begin
          Lsq.release_head lsq entry;
          (* A retired store stops shadowing younger loads. *)
          if entry_is_store entry then store_retired ()
        end;
        if observed t then notify t (Ev_commit entry);
        Stdlib.incr st_committed;
        let committed = committed + 1 in
        let keep_going =
          match entry.record.payload with
          | Trace.Record.Branch { kind; taken; target } ->
              Stdlib.incr st_committed_branches;
              if Resim_isa.Opcode.is_cond_kind kind then
                Stdlib.incr st_committed_cond_branches;
              Bpred.Predictor.update predictor ~pc:entry.record.pc ~kind
                ~taken ~target;
              if entry.squash_on_commit then begin
                Stdlib.incr st_mispredictions;
                squash entry;
                false
              end
              else true
          | Trace.Record.Memory { is_load; _ } ->
              if is_load then begin
                Stdlib.incr st_committed_loads;
                if entry.forwarded then Stdlib.incr st_forwarded_loads
              end
              else Stdlib.incr st_committed_stores;
              true
          | Trace.Record.Other { op_class = Trace.Record.Mult }
          | Trace.Record.Other { op_class = Trace.Record.Divide } ->
              Stdlib.incr st_committed_mult_div;
              true
          | Trace.Record.Other { op_class = Trace.Record.Alu } -> true
        in
        if keep_going then commit_loop committed write_ports_used
        else committed
      end
    end
  in
  let commit_phase () = observe_width commit_widths (commit_loop 0 0) in
  (* ---- writeback ---- *)
  (* Walk only the registered consumers. The cons list is
     youngest-first; processing order among a producer's dependents is
     immaterial (the ready pool orders by id and [in_ready] dedups; a
     load woken before a sibling store resolves is reclassified again by
     that store's [store_resolved]). Clearing a source of a waiting
     store means its address (src1) or data (src2) just resolved, which
     can reclassify younger loads. *)
  let rec wake_dependents producer_id = function
    | [] -> ()
    | (dependent : Entry.t) :: rest ->
        if not dependent.squashed then begin
          let cleared1 = dependent.src1_producer = producer_id in
          if cleared1 then dependent.src1_producer <- Entry.no_producer;
          let cleared2 = dependent.src2_producer = producer_id in
          if cleared2 then dependent.src2_producer <- Entry.no_producer;
          if (cleared1 || cleared2) && entry_is_dispatched dependent then
            if entry_is_load dependent then begin
              if sources_ready dependent then reclassify_load dependent
            end
            else begin
              if sources_ready dependent then push_ready dependent;
              if entry_is_store dependent then store_resolved dependent
            end
        end;
        wake_dependents producer_id rest
  in
  let wakeup (producer : Entry.t) =
    let dependents = producer.Entry.dependents in
    producer.Entry.dependents <- [];
    wake_dependents producer.id dependents;
    let dest = producer.record.Trace.Record.dest in
    if dest > 0 && dest < register_count && producers.(dest) = producer.id
    then producers.(dest) <- no_producer
  in
  let rec drain_completion now =
    if eq_min_at completion <= now then begin
      let entry : Entry.t = eq_top completion in
      eq_drop completion;
      if (not entry.squashed) && entry_is_issued entry then
        eq_push due ~at:0 ~id:entry.id entry;
      drain_completion now
    end
  in
  let rec broadcast_loop now n =
    if n < width && not (eq_is_empty due) then begin
      let entry : Entry.t = eq_top due in
      eq_drop due;
      if (not entry.squashed) && entry_is_issued entry then begin
        entry.state <- Entry.Completed;
        entry.completed_cycle <- now;
        if observed t then notify t (Ev_complete entry);
        wakeup entry;
        broadcast_loop now (n + 1)
      end
      else broadcast_loop now n
    end
  in
  (* Move every execution that is due this cycle from the completion
     heap to the broadcast queue, then broadcast the N oldest. Results
     beyond the bandwidth stay queued — exactly the entries the scan
     would find still Issued-and-due next cycle. *)
  let writeback_phase () =
    drain_completion t.cycle;
    broadcast_loop t.cycle 0
  in
  (* ---- issue ---- *)
  let try_issue ~reads_used (entry : Entry.t) =
    match entry.record.payload with
    | Trace.Record.Other { op_class } ->
        if not (sources_ready entry) then verdict_not_ready
        else begin
          let verdict =
            match op_class with
            | Trace.Record.Alu -> alloc_alu ()
            | Trace.Record.Mult -> alloc_mult ()
            | Trace.Record.Divide -> alloc_div t.cycle
          in
          if verdict < 0 then charge st_fu_busy_stalls Stall_fu_busy;
          verdict
        end
    | Trace.Record.Branch _ ->
        if not (sources_ready entry) then verdict_not_ready
        else begin
          let verdict = alloc_alu () in
          if verdict < 0 then charge st_fu_busy_stalls Stall_fu_busy;
          verdict
        end
    | Trace.Record.Memory { is_load = false; _ } ->
        if not (sources_ready entry) then verdict_not_ready
        else if alloc_alu () >= 0 then 1
        else begin
          charge st_fu_busy_stalls Stall_fu_busy;
          verdict_no_unit
        end
    | Trace.Record.Memory { is_load = true; address } -> (
        match entry.load_readiness with
        | Entry.Load_not_checked | Entry.Load_blocked -> verdict_not_ready
        | Entry.Load_forward ->
            if alloc_alu () >= 0 then begin
              entry.forwarded <- true;
              1
            end
            else begin
              charge st_fu_busy_stalls Stall_fu_busy;
              verdict_no_unit
            end
        | Entry.Load_needs_port ->
            if reads_used >= read_ports then begin
              charge st_read_port_stalls Stall_read_port;
              verdict_no_unit
            end
            else if alloc_alu () >= 0 then begin
              let access = dcache_access address false in
              1 + access
            end
            else begin
              charge st_fu_busy_stalls Stall_fu_busy;
              verdict_no_unit
            end)
  in
  (* A successful issue consumed a read port exactly when the load
     had classified as needing one; [try_issue] never changes the
     classification, so the caller can read it afterwards. *)
  let consumed_read_port (entry : Entry.t) verdict =
    verdict >= 0
    &&
    match entry.load_readiness with
    | Entry.Load_needs_port -> true
    | Entry.Load_not_checked | Entry.Load_blocked | Entry.Load_forward ->
        false
  in
  let issue_entry (entry : Entry.t) ~latency =
    entry.Entry.state <- Entry.Issued;
    entry.Entry.complete_at <- t.cycle + latency;
    eq_push completion ~at:entry.Entry.complete_at ~id:entry.Entry.id entry;
    if observed t then notify t (Ev_issue entry);
    Stdlib.incr st_issued
  in
  (* The Optimized first-slot pass returns the issued entry's id (or
     -1): non-loads never consume read ports, so [reads_used] is still 0
     when the main walk starts. *)
  let rec first_slot i =
    if i >= !candidate_count then -1
    else begin
      let entry = !candidates.(i) in
      if entry_is_load entry then first_slot (i + 1)
      else begin
        let verdict = try_issue ~reads_used:0 entry in
        if verdict >= 0 then begin
          issue_entry entry ~latency:verdict;
          entry.id
        end
        else first_slot (i + 1)
      end
    end
  in
  let rec issue_loop i slots_used reads_used first_id =
    if i >= !candidate_count then slots_used
    else begin
      let entry = !candidates.(i) in
      if entry.id = first_id then
        issue_loop (i + 1) slots_used reads_used first_id
      else if slots_used >= width then begin
        (* Past the width cutoff the scan stops visiting entries, so
           charge no stalls — just keep them ready for next cycle. *)
        push_ready entry;
        issue_loop (i + 1) slots_used reads_used first_id
      end
      else begin
        let verdict = try_issue ~reads_used entry in
        if verdict >= 0 then begin
          issue_entry entry ~latency:verdict;
          issue_loop (i + 1) (slots_used + 1)
            (if consumed_read_port entry verdict then reads_used + 1
             else reads_used)
            first_id
        end
        else begin
          push_ready entry;
          issue_loop (i + 1) slots_used reads_used first_id
        end
      end
    end
  in
  let push_candidate (entry : Entry.t) =
    let capacity = Array.length !candidates in
    if !candidate_count = capacity then begin
      let grown = Array.make (imax 16 (2 * capacity)) entry in
      Array.blit !candidates 0 grown 0 capacity;
      candidates := grown
    end;
    !candidates.(!candidate_count) <- entry;
    Stdlib.incr candidate_count
  in
  (* Drain the pool oldest-first into the scratch buffer; entries that
     do not issue this cycle re-enter it. The pool holds exactly the
     source-ready entries, so walking it reproduces the scan's visit
     order over every entry whose [try_issue] could have an effect
     (including port-stall charges). *)
  let rec drain_ready () =
    if not (eq_is_empty ready) then begin
      let entry : Entry.t = eq_top ready in
      eq_drop ready;
      entry.in_ready <- false;
      if (not entry.squashed) && entry_is_dispatched entry then
        push_candidate entry;
      drain_ready ()
    end
  in
  let issue_phase () =
    fu.Fu.alu_used <- 0;
    fu.Fu.mult_used <- 0;
    candidate_count := 0;
    drain_ready ();
    let first_id = if optimized then first_slot 0 else -1 in
    let slots = if first_id >= 0 then 1 else 0 in
    let slots = issue_loop 0 slots 0 first_id in
    observe_width issue_widths slots
  in
  (* ---- dispatch / decouple ---- *)
  let rec dispatch_loop count =
    if count >= width then ()
    else if decouple.Ring.length = 0 then
      charge st_ifq_empty_stalls Stall_ifq_empty
    else begin
      let fetched = ring_front decouple in
      if rob_ring.Ring.length = rob_ring.Ring.capacity then
        charge st_rob_full_stalls Stall_rob_full
      else if record_is_memory fetched.record && Lsq.is_full lsq then
        charge st_lsq_full_stalls Stall_lsq_full
      else begin
        ring_drop decouple;
        (* [Rob.dispatch] unfolded over the exposed window, with
           [Entry.make]'s literal allocated in place. *)
        let entry =
          { Entry.id = rob.Rob.sequence;
            record = fetched.record;
            src1_producer = no_producer;
            src2_producer = no_producer;
            state = Entry.Dispatched;
            complete_at = max_int;
            completed_cycle = max_int;
            load_readiness = Entry.Load_not_checked;
            forwarded = false;
            squash_on_commit = false;
            ras_repair = None;
            dependents = [];
            in_ready = false;
            squashed = false }
        in
        rob.Rob.sequence <- rob.Rob.sequence + 1;
        ring_push rob_ring entry;
        entry.squash_on_commit <- fetched.squash_at_commit;
        entry.ras_repair <- fetched.ras_repair;
        entry.src1_producer <- producer_of fetched.record.src1;
        entry.src2_producer <- producer_of fetched.record.src2;
        let dest = fetched.record.dest in
        if dest > 0 && dest < register_count then
          producers.(dest) <- entry.id;
        if record_is_memory fetched.record then Lsq.dispatch lsq entry;
        register_dispatched entry;
        if observed t then notify t (Ev_dispatch entry);
        Stdlib.incr st_dispatched;
        dispatch_loop (count + 1)
      end
    end
  in
  let dispatch_phase () = dispatch_loop 0 in
  let rec decouple_loop moved =
    if
      moved < width
      && ifq.Ring.length <> 0
      && decouple.Ring.length <> decouple.Ring.capacity
    then begin
      let moved_record = ring_front ifq in
      ring_drop ifq;
      ring_push decouple moved_record;
      decouple_loop (moved + 1)
    end
  in
  let decouple_phase () = decouple_loop 0 in
  (* ---- fetch ---- *)
  (* [fetch_phase] with the loop state in parameters; the stall-burn
     branch and [fetch_control] are shared with the reference phases
     (both already read hoisted constants). *)
  let rec fetch_loop count =
    if count < width && ifq.Ring.length <> ifq.Ring.capacity then begin
      if source_has t.cursor then begin
        let record = source.Source.window.(t.cursor - source.Source.base) in
        match t.fetch_mode with
        | Awaiting_resolution -> ()
        | Wrong_path when not record.wrong_path ->
            t.fetch_mode <- Awaiting_resolution
        | Normal when record.wrong_path ->
            t.cursor <- t.cursor + 1;
            Stdlib.incr st_discarded_wrong_path;
            fetch_loop count
        | Normal | Wrong_path ->
            let byte_addr = Resim_isa.Instruction.byte_address record.pc in
            let block = byte_addr / block_bytes in
            let stalled_on_icache =
              if block = t.last_fetch_block then false
              else begin
                let latency = icache_access byte_addr false in
                t.last_fetch_block <- block;
                let extra = latency - icache_hit_latency in
                if extra > 0 then begin
                  t.fetch_stall <- extra;
                  t.fetch_stall_source <- Recover_icache;
                  st_icache_stall_cycles := !st_icache_stall_cycles + extra;
                  true
                end
                else false
              end
            in
            if not stalled_on_icache then begin
              t.cursor <- t.cursor + 1;
              Stdlib.incr st_fetched;
              if record.wrong_path then Stdlib.incr st_fetched_wrong_path;
              let fetched, taken =
                match record.payload with
                | Trace.Record.Branch { kind; taken; target } ->
                    fetch_control t record ~kind ~taken ~target
                | Trace.Record.Memory _ | Trace.Record.Other _ ->
                    ( { record;
                        squash_at_commit = false;
                        ras_repair = None },
                      false )
              in
              ring_push ifq fetched;
              if observed t then notify t (Ev_fetch record);
              (* Fetch until a control-flow bubble (§III). *)
              if not taken then fetch_loop (count + 1)
            end
      end
    end
  in
  let fetch_phase () =
    if not t.fetch_enabled then ()
    else if t.fetch_stall > 0 then burn_fetch_stall t
    else begin
      (* [max_int] for an array source: only pulled windows release. *)
      if t.cursor > source.Source.reclaim_below then
        Source.release_below source t.cursor;
      fetch_loop 0
    end
  in
  (* ---- the cycle ---- *)
  let account () =
    Stats.sample_occupancy stats ~ifq:ifq.Ring.length
      ~rob:rob_ring.Ring.length ~lsq:(Lsq.length lsq);
    t.cycle <- t.cycle + 1;
    Stdlib.incr st_major_cycles
  in
  let finished_here () =
    (not (source_has t.cursor))
    && ifq.Ring.length = 0
    && decouple.Ring.length = 0
    && rob_ring.Ring.length = 0
  in
  fun () ->
    if not (finished_here ()) then begin
      probe t Ph_commit;
      commit_phase ();
      probe t Ph_writeback;
      writeback_phase ();
      probe t Ph_issue;
      issue_phase ();
      probe t Ph_dispatch;
      dispatch_phase ();
      probe t Ph_decouple;
      decouple_phase ();
      probe t Ph_fetch;
      fetch_phase ();
      probe t Ph_account;
      account ()
    end

let create_from_source ?(config = Config.reference) source =
  let config =
    match Config.validate config with
    | Ok config -> config
    | Error message -> invalid_arg ("Engine.create: " ^ message)
  in
  let shared_l2 =
    Option.map
      (fun l2_config -> Cache.create ~timing:config.l2_timing l2_config)
      config.l2cache
  in
  let t =
    { config;
      s_width = config.width;
      s_optimized = Config.is_optimized config.organization;
      s_read_ports = config.mem_read_ports;
      s_write_ports = config.mem_write_ports;
      s_misfetch_penalty = config.misfetch_penalty;
      s_misspeculation_penalty = config.misspeculation_penalty;
      s_block_bytes = block_bytes_of_cache config.icache;
      source;
      cursor = 0;
      ifq = Ring.create ~capacity:config.ifq_entries;
      decouple = Ring.create ~capacity:config.decouple_entries;
      rob = Rob.create ~entries:config.rob_entries;
      lsq = Lsq.create ~entries:config.lsq_entries;
      rename = Rename.create ~registers:Resim_isa.Reg.count;
      fu = Fu.create config;
      predictor = Bpred.Predictor.create config.predictor;
      icache =
        Hierarchy.create ~timing:config.cache_timing config.icache ~l2:shared_l2;
      dcache =
        Hierarchy.create ~timing:config.cache_timing config.dcache ~l2:shared_l2;
      stats = Stats.create ();
      cycle = 0;
      fetch_stall = 0;
      fetch_stall_source = Recover_mispredict;
      fetch_mode = Normal;
      last_fetch_block = -1;
      fetch_enabled = true;
      observer = None;
      phase_probe = None;
      stepper = Reference }
  in
  t.stepper <- Closures (make_run t);
  t

let create ?config trace = create_from_source ?config (Source.of_array trace)

let simulate trace = run (create trace)
