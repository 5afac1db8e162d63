(** In-flight instruction state — a Reorder Buffer entry.

    The simulated architecture is RUU-style: the ROB entry doubles as the
    reservation station, carrying source readiness (producer links into
    older entries), execution state and the bookkeeping flags that drive
    mis-speculation handling. *)

type state =
  | Dispatched  (** waiting in the window for operands / a unit *)
  | Issued      (** executing; [complete_at] is the writeback cycle *)
  | Completed   (** result broadcast; awaiting in-order commit *)

(** Load readiness as decided by Lsq_refresh each major cycle. *)
type load_readiness =
  | Load_not_checked
  | Load_blocked      (** an older store's address is unresolved *)
  | Load_forward      (** value forwarded from an older store in the LSQ *)
  | Load_needs_port   (** must access the D-cache through a read port *)

type t = {
  id : int;  (** global program-order sequence number *)
  record : Resim_trace.Record.t;
  mutable src1_producer : int;
      (** producing entry id; {!no_producer} when the operand is ready.
          Unboxed so the per-wakeup compare/clear never allocates. *)
  mutable src2_producer : int;
  mutable state : state;
  mutable complete_at : int;
      (** host int: a 63-bit cycle count exceeds any reachable run *)
  mutable completed_cycle : int;
      (** cycle the result was broadcast; commit requires it to be a past
          cycle — the paper's same-cycle flag *)
  mutable load_readiness : load_readiness;
  mutable forwarded : bool;
  mutable squash_on_commit : bool;
      (** mispredicted branch: resolves and squashes at commit *)
  mutable ras_repair : Resim_bpred.Ras.t option;
  mutable dependents : t list;
      (** closure family (event-driven): younger entries whose sources this entry
          produces, registered at their dispatch and woken (only them —
          not the whole ROB) when this entry's result broadcasts *)
  mutable in_ready : bool;
      (** closure family: entry currently sits in the ready pool *)
  mutable squashed : bool;
      (** closure family: entry was squashed; pending heap/pool/wakeup
          references to it are skipped lazily *)
}

val no_producer : int
(** Sentinel ([-1]) for a resolved source operand. *)

val make : id:int -> Resim_trace.Record.t -> t

val sources_ready : t -> bool

val is_dispatched : t -> bool
val is_issued : t -> bool
val is_completed : t -> bool
(** Per-cycle state tests; matches rather than polymorphic [=] so the
    hot paths never call caml_equal. *)

val is_load : t -> bool
val is_store : t -> bool
val is_wrong_path : t -> bool
