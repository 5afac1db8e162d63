type state = Dispatched | Issued | Completed

type load_readiness =
  | Load_not_checked
  | Load_blocked
  | Load_forward
  | Load_needs_port

type t = {
  id : int;
  record : Resim_trace.Record.t;
  mutable src1_producer : int;
  mutable src2_producer : int;
  mutable state : state;
  mutable complete_at : int;
  mutable completed_cycle : int;
  mutable load_readiness : load_readiness;
  mutable forwarded : bool;
  mutable squash_on_commit : bool;
  mutable ras_repair : Resim_bpred.Ras.t option;
  mutable dependents : t list;
  mutable in_ready : bool;
  mutable squashed : bool;
}

let no_producer = -1

let make ~id record =
  { id;
    record;
    src1_producer = no_producer;
    src2_producer = no_producer;
    state = Dispatched;
    complete_at = max_int;
    completed_cycle = max_int;
    load_readiness = Load_not_checked;
    forwarded = false;
    squash_on_commit = false;
    ras_repair = None;
    dependents = [];
    in_ready = false;
    squashed = false }

let sources_ready t = t.src1_producer < 0 && t.src2_producer < 0

(* State tests compile to tag compares; [t.state = Issued] would call
   caml_equal on every visit (lint rule RSM-L002). *)
let is_dispatched t =
  match t.state with Dispatched -> true | Issued | Completed -> false

let is_issued t =
  match t.state with Issued -> true | Dispatched | Completed -> false

let is_completed t =
  match t.state with Completed -> true | Dispatched | Issued -> false

let is_load t = Resim_trace.Record.is_load t.record
let is_store t = Resim_trace.Record.is_store t.record
let is_wrong_path t = t.record.Resim_trace.Record.wrong_path
