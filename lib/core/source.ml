type t = {
  pull : unit -> Resim_trace.Record.t option;
  mutable window : Resim_trace.Record.t array;
  mutable base : int;       (* absolute index of window.(0) *)
  mutable length : int;     (* valid records in the window *)
  mutable exhausted : bool;
  mutable reclaim_below : int;
}

(* An array is a full window over the whole trace: nothing to pull, and
   a [reclaim_below] no cursor passes, so the window is never compacted
   and the caller's array is never written. *)
let of_array records =
  { pull = (fun () -> None);
    window = records;
    base = 0;
    length = Array.length records;
    exhausted = true;
    reclaim_below = max_int }

let initial_window = 1024

let of_pull pull =
  { pull;
    window = Array.make initial_window Resim_trace.Record.
      { pc = 0; wrong_path = false; dest = 0; src1 = 0; src2 = 0;
        payload = Other { op_class = Alu } };
    base = 0;
    length = 0;
    exhausted = false;
    reclaim_below = 0 }

(* Drop reclaimed records by shifting the window down; grow it when the
   producer runs ahead of reclamation. *)
let compact t =
  let reclaimable = t.reclaim_below - t.base in
  let reclaimable = if reclaimable < 0 then 0 else reclaimable in
  let drop = if reclaimable < t.length then reclaimable else t.length in
  if drop > 0 then begin
    Array.blit t.window drop t.window 0 (t.length - drop);
    t.base <- t.base + drop;
    t.length <- t.length - drop
  end

let append t record =
  if t.length = Array.length t.window then begin
    compact t;
    if t.length = Array.length t.window then begin
      let bigger = Array.make (2 * Array.length t.window) record in
      Array.blit t.window 0 bigger 0 t.length;
      t.window <- bigger
    end
  end;
  t.window.(t.length) <- record;
  t.length <- t.length + 1

let rec fill_to t index =
  if t.base + t.length > index || t.exhausted then ()
  else
    match t.pull () with
    | Some record ->
        append t record;
        fill_to t index
    | None -> t.exhausted <- true

(* A hit is a bounds test and an array read; a miss below the window
   was reclaimed, and past it the producer is asked for more. *)
let[@inline] hit t index =
  let i = index - t.base in
  i >= 0 && i < t.length

let refill t index ~reclaimed =
  if index < t.base then invalid_arg reclaimed;
  fill_to t index;
  index < t.base + t.length

let has t index =
  hit t index || refill t index ~reclaimed:"Source.has: index already reclaimed"

let at t index =
  if hit t index
     || refill t index ~reclaimed:"Source.at: index already reclaimed"
  then Some t.window.(index - t.base)
  else None

let get t index =
  if hit t index
     || refill t index ~reclaimed:"Source.get: index already reclaimed"
  then t.window.(index - t.base)
  else invalid_arg "Source.get: past end of stream"

let release_below t index =
  if index > t.reclaim_below then begin
    t.reclaim_below <- index;
    (* Compact lazily but keep the window from growing without bound
       when the producer is bursty. *)
    if t.reclaim_below - t.base > Array.length t.window / 2 then compact t
  end

let buffered t = t.length
