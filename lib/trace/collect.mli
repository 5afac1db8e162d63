(** Growable array for the trace decoders: pre-sized when the length is
    known, doubled when it is not, trimmed once by {!contents}. Private
    to [resim_trace]. *)

type 'a t

val create : int -> 'a t
(** [create n] allocates [n] slots (at least one) at the first {!push}. *)

val push : 'a t -> 'a -> unit

val contents : 'a t -> 'a array
(** The pushed elements in order; shares the buffer when it is full. *)
