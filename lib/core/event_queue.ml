(* Structure-of-arrays layout: keys live in plain [int array]s so a
   push allocates nothing (OCaml int64 and per-node records would box).
   The payload array keeps stale references in its unused suffix; they
   are bounded by the high-water capacity and overwritten on reuse. *)
type 'a t = {
  mutable at : int array;         (* heap-ordered prefix [0, size) *)
  mutable id : int array;
  mutable seq : int array;
  mutable payload : 'a array;
  mutable size : int;
  mutable stamp : int;            (* insertion counter: stability tiebreak *)
}

let create () =
  { at = [||]; id = [||]; seq = [||]; payload = [||]; size = 0; stamp = 0 }
