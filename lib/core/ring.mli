(** Bounded circular buffers — the hardware queues (IFQ, decouple buffer,
    LSQ ordering) of the simulated processor.

    The representation is exposed for the engine's closure family
    (DESIGN.md §14): the per-cycle code inlines the constant-time
    operations, which a non-flambda build would otherwise leave as
    out-of-line calls. Treat the type as private elsewhere — construct
    with {!create} and mutate only through the operations below. *)

type 'a t = {
  capacity : int;
  mutable slots : 'a array;  (* [[||]] until the first push *)
  mutable head : int;
  mutable length : int;
}

val create : capacity:int -> 'a t
(** Raises [Invalid_argument] when [capacity <= 0]. *)

val capacity : 'a t -> int
val length : 'a t -> int
val is_empty : 'a t -> bool
val is_full : 'a t -> bool

val push : 'a t -> 'a -> unit
(** Append at the tail. Raises [Failure] when full. *)

val pop : 'a t -> 'a option
(** Remove and return the oldest element. *)

val front : 'a t -> 'a
(** The oldest element, left in place — allocation-free; raises
    [Invalid_argument] when empty. Every record funnels through two
    rings per cycle, so the engine uses these unboxed accessors. *)

val take : 'a t -> 'a
(** [pop] without the option; raises [Invalid_argument] when empty. *)

val drop : 'a t -> unit
(** Remove the oldest element; raises [Invalid_argument] when empty. *)

val get : 'a t -> int -> 'a
(** [get t i] is the element [i] places from the head (0 = oldest).
    Raises [Invalid_argument] when out of range. *)

val iter : ('a -> unit) -> 'a t -> unit
(** Oldest to newest. *)

val iteri : (int -> 'a -> unit) -> 'a t -> unit
val clear : 'a t -> unit

val drop_while_back : ('a -> bool) -> 'a t -> int
(** Remove elements from the tail (newest first) while the predicate
    holds; returns how many were removed. Used by squash. *)
