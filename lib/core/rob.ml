type t = { ring : Entry.t Ring.t; mutable sequence : int }

let create ~entries = { ring = Ring.create ~capacity:entries; sequence = 0 }

let capacity t = Ring.capacity t.ring
let length t = Ring.length t.ring
let is_full t = Ring.is_full t.ring
let is_empty t = Ring.is_empty t.ring

let dispatch t record =
  let entry = Entry.make ~id:t.sequence record in
  t.sequence <- t.sequence + 1;
  Ring.push t.ring entry;
  entry

let head t = Ring.peek t.ring
let first t = Ring.front t.ring
let pop_head t = Ring.pop t.ring
let drop_head t = Ring.drop t.ring
let get t i = Ring.get t.ring i
let iter f t = Ring.iter f t.ring

let find predicate t =
  let found = ref None in
  (try
     Ring.iter
       (fun entry ->
         if predicate entry then begin
           found := Some entry;
           raise Exit
         end)
       t.ring
   with Exit -> ());
  !found

let squash_younger t ~than_id =
  Ring.drop_while_back (fun (entry : Entry.t) -> entry.id > than_id) t.ring

let next_id t = t.sequence
