(** resim-dsafe: whole-library domain-safety analysis (DESIGN.md §15).

    Orchestrates the four passes over a set of [.ml] files analyzed
    together (cross-module captures resolve only within the set):

    1. inventory (Dsafe_inventory) — top-level/escaping mutable objects
    2. capture/escape (Dsafe_domain) — closures reaching Domain.spawn /
       Pool.submit and the mutable state they capture
    3. guard discipline (Dsafe_domain) — every domain-shared object is
       Atomic.t, lock-bracketed, or explicitly annotated
    4. lock discipline (Dsafe_locks) — unlock on all exit paths, no
       double-lock, no blocking domain ops under a lock, with_lock
       everywhere

    plus RSM-D007 for malformed [resim-dsafe:] annotations. The stable
    code catalog RSM-D001..D008 and the annotation grammar are
    documented in DESIGN.md §15. *)

type annotation = { file : string; line : int; form : Dsafe_ast.annot_form }

type report = {
  diagnostics : Diagnostic.t list;  (** sorted by file, then line *)
  annotations : annotation list;
      (** every [resim-dsafe:] annotation in the analyzed set, so
          reviews and tests can budget them *)
  inventories : Dsafe_inventory.t list;
}

val analyze_files : string list -> (report, string) result
(** [Error message] if any file fails to read or parse. *)

val pp_inventories : Format.formatter -> report -> unit
