(** Trace analysis: the questions an architect asks of a trace before
    simulating it — which branches dominate and how biased they are,
    where the memory traffic lands, and what the instruction mix is.
    Only correct-path records are profiled. *)

type branch_site = {
  pc : int;
  executions : int;
  taken_rate : float;
}

val hot_branches : top:int -> Record.t array -> branch_site list
(** The [top] most frequently executed conditional-branch sites,
    descending. *)

val hot_pages : top:int -> Record.t array -> (int * int) list
(** (page base address, accesses) for the [top] most-touched 4 KiB
    memory pages. *)

type mix = {
  alu : float;
  mult : float;
  divide : float;
  load : float;
  store : float;
  branch : float;
}

val instruction_mix : Record.t array -> mix
(** Fractions of correct-path records per class (they sum to 1 for a
    non-empty trace). *)

val memory_footprint_bytes : Record.t array -> int
(** Size of the touched address range at page granularity. *)

val pp_report : Format.formatter -> Record.t array -> unit
