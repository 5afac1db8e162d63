(** Return Address Stack.

    A circular hardware stack (the paper's default holds 16 entries):
    calls push their return address at fetch, returns pop their predicted
    target. Overflow silently wraps, exactly like the hardware structure.
    {!snapshot}/{!restore} support repair after a squash. *)

type t

val create : int -> t
(** [create depth]; raises [Invalid_argument] when [depth <= 0]. *)

val push : t -> int -> unit
val pop : t -> int option
(** [None] when the stack is empty (the front end then falls back to the
    BTB or sequential fetch). *)

val snapshot : t -> t
val restore : t -> t -> unit
(** [restore ras saved] copies [saved]'s contents into [ras]; both must
    have the same depth. *)
