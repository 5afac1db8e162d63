(** Engine selection, kept for the layered benchmark ([perfbench/]),
    which links [install ~mode:Auto|Never] and [instrument Auto] to time
    the default engine against the reference phases. Every engine runs
    the closure family from {!Resim_core.Engine.create} on (DESIGN.md
    §14), so nothing else needs this module. *)

type mode =
  | Auto  (** the default engine: the closure family *)
  | Never
      (** the reference phases ({!Resim_core.Engine.use_reference}): the
          paper's per-cycle scan, where the closure family is
          event-driven *)

val install : mode:mode -> Resim_core.Engine.t -> bool
(** Apply [mode] to a freshly created engine; returns whether the
    closure family runs. *)

val instrument : mode -> Resim_core.Engine.t -> unit
(** {!install} shaped for the [instrument] hooks of
    {!Resim_core.Resim.run} and [Resim_sweep.Sweep.run]. *)
