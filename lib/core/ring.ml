(* Flat storage, sized lazily at the first push (a polymorphic ring has
   no dummy element to pre-fill with). Popped slots are not cleared —
   the stale reference is bounded by the ring's capacity and
   overwritten on reuse; [clear] drops the whole store. *)
type 'a t = {
  capacity : int;
  mutable slots : 'a array;  (* [||] until the first push *)
  mutable head : int;
  mutable length : int;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Ring.create: capacity must be positive";
  { capacity; slots = [||]; head = 0; length = 0 }

let capacity t = t.capacity
let length t = t.length
let is_empty t = t.length = 0
let is_full t = t.length = t.capacity

(* [head + i] is always < 2 * capacity, so the wrap is a conditional
   subtract — [mod] would cost a hardware divide on every slot access,
   and the engine's ROB walks funnel through here. *)
let[@inline] index t i =
  let j = t.head + i in
  if j >= t.capacity then j - t.capacity else j

let push t value =
  if is_full t then failwith "Ring.push: full";
  if Array.length t.slots = 0 then t.slots <- Array.make t.capacity value;
  t.slots.(index t t.length) <- value;
  t.length <- t.length + 1

let front t =
  if is_empty t then invalid_arg "Ring.front: empty";
  t.slots.(t.head)

let drop t =
  if is_empty t then invalid_arg "Ring.drop: empty";
  let next = t.head + 1 in
  t.head <- (if next >= t.capacity then 0 else next);
  t.length <- t.length - 1

let take t =
  let value = front t in
  drop t;
  value

let pop t = if is_empty t then None else Some (take t)

let get t i =
  if i < 0 || i >= t.length then invalid_arg "Ring.get: out of range";
  t.slots.(index t i)

let iteri f t =
  for i = 0 to t.length - 1 do
    f i (get t i)
  done

let iter f t = iteri (fun _ value -> f value) t

let clear t =
  t.slots <- [||];
  t.head <- 0;
  t.length <- 0

let drop_while_back predicate t =
  let dropped = ref 0 in
  let continue_ = ref true in
  while !continue_ && t.length > 0 do
    let last = get t (t.length - 1) in
    if predicate last then begin
      t.length <- t.length - 1;
      incr dropped
    end
    else continue_ := false
  done;
  !dropped
