(** Binary min-heap of timestamped events for the event-driven scheduler.

    Keys are [(at, id)] pairs compared lexicographically — [at] is a
    simulated cycle ([complete_at] for completion events, [0] for
    program-order pools) and [id] the ROB entry id, which is globally
    unique and monotone in program order. Ties on the full key (possible
    only if a caller reuses an id) pop in insertion order, so the queue
    is stable.

    Keys are plain [int]s held in flat arrays (structure-of-arrays), so
    a push performs no allocation; 63-bit cycles exceed any reachable
    simulation length. All operations are O(log n) except
    [length]/[is_empty]/[min_key] (O(1)) and [clear] (O(1), drops the
    storage). The heap grows geometrically and never shrinks while in
    use.

    The representation is exposed for the engine's closure family
    (DESIGN.md §14), which inlines the O(1) reads ([is_empty], [min_at],
    the root payload) and transcribes [push]/[drop] with the same key
    order. The heap-ordered prefix lives in [0, size); [payload] keeps
    stale references in its unused suffix. Treat the type as private
    elsewhere; other pushes and drops must go through the operations
    below. *)

type 'a t = {
  mutable at : int array;
  mutable id : int array;
  mutable seq : int array;
  mutable payload : 'a array;
  mutable size : int;
  mutable stamp : int;
}

val create : unit -> 'a t

val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> at:int -> id:int -> 'a -> unit
(** Insert an event keyed [(at, id)]. *)

val min_key : 'a t -> (int * int) option
(** Key of the next event to pop, without popping it. *)

val pop : 'a t -> 'a option
(** Remove and return the event with the smallest key. *)

val pop_due : 'a t -> now:int -> 'a option
(** [pop t] only when the minimum key's [at] is [<= now]; [None]
    otherwise (and the queue is left untouched). *)

val min_at : 'a t -> int
(** [at] of the minimum key, or [max_int] when empty — so drain loops
    can test dueness without allocating. *)

val top : 'a t -> 'a
(** Payload of the minimum key without popping — allocation-free;
    raises [Invalid_argument] when empty. *)

val drop : 'a t -> unit
(** Remove the minimum-key event; raises [Invalid_argument] when
    empty. Engine drain loops pair [top]/[drop] to avoid the option
    that [pop] would box on every event. *)

val clear : 'a t -> unit
(** Empty the queue and release its storage. *)
