(* Producers are a flat int array with Entry.no_producer (-1) for "no
   mapping": dispatch reads two slots per instruction, so the lookup
   must not allocate. *)
type t = { producers : int array }

let create ~registers =
  if registers <= 0 then invalid_arg "Rename.create";
  { producers = Array.make registers Entry.no_producer }

let producer t reg =
  if reg <= 0 || reg >= Array.length t.producers then Entry.no_producer
  else t.producers.(reg)

let define t ~reg ~id =
  if reg > 0 && reg < Array.length t.producers then t.producers.(reg) <- id

let clear t ~reg ~id =
  if reg > 0 && reg < Array.length t.producers
     && t.producers.(reg) = id
  then t.producers.(reg) <- Entry.no_producer

let reset t =
  Array.fill t.producers 0 (Array.length t.producers) Entry.no_producer
