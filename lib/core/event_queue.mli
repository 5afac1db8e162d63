(** Binary min-heap of timestamped events for the event-driven engine:
    the representation only. The engine's closure family ({!Engine},
    DESIGN.md §14) owns the operations — its push, top and drop run
    over these fields directly, a dozen-plus times per cycle.

    Keys are [(at, id)] pairs compared lexicographically — [at] is a
    simulated cycle ([complete_at] for completion events, [0] for
    program-order pools) and [id] the ROB entry id, which is globally
    unique and monotone in program order. [seq] breaks ties on the full
    key (possible only if a caller reuses an id) in insertion order, so
    the queue is stable.

    Keys are plain [int]s held in flat arrays (structure-of-arrays), so
    a push performs no allocation; 63-bit cycles exceed any reachable
    simulation length. The heap-ordered prefix lives in [0, size);
    [payload] keeps stale references in its unused suffix. The storage
    grows geometrically and never shrinks. *)

type 'a t = {
  mutable at : int array;
  mutable id : int array;
  mutable seq : int array;
  mutable payload : 'a array;
  mutable size : int;
  mutable stamp : int;
}

val create : unit -> 'a t
(** An empty queue with no storage. *)
