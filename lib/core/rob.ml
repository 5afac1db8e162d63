type t = { ring : Entry.t Ring.t; mutable sequence : int }

let create ~entries = { ring = Ring.create ~capacity:entries; sequence = 0 }

let length t = Ring.length t.ring
let is_full t = Ring.is_full t.ring
let is_empty t = Ring.is_empty t.ring

let dispatch t record =
  let entry = Entry.make ~id:t.sequence record in
  t.sequence <- t.sequence + 1;
  Ring.push t.ring entry;
  entry

let first t = Ring.front t.ring
let drop_head t = Ring.drop t.ring
let iter f t = Ring.iter f t.ring

let squash_younger t ~than_id =
  Ring.drop_while_back (fun (entry : Entry.t) -> entry.id > than_id) t.ring
