(* An array filled in place. The decoders size it up front (the header
   count, capped by what the payload can hold) or, for streamed traces,
   start small and double; one trim at the end replaces consing a list,
   [List.rev] and [Array.of_list]. *)

type 'a t = { capacity : int; mutable items : 'a array; mutable length : int }

let create capacity = { capacity = max 1 capacity; items = [||]; length = 0 }

let push t x =
  if t.length = Array.length t.items then begin
    let size = if t.length = 0 then t.capacity else 2 * t.length in
    let grown = Array.make size x in
    Array.blit t.items 0 grown 0 t.length;
    t.items <- grown
  end;
  t.items.(t.length) <- x;
  t.length <- t.length + 1

let contents t =
  if t.length = Array.length t.items then t.items
  else Array.sub t.items 0 t.length
