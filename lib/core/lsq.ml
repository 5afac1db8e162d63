type t = { ring : Entry.t Ring.t }

let create ~entries = { ring = Ring.create ~capacity:entries }

let length t = Ring.length t.ring
let is_full t = Ring.is_full t.ring

let dispatch t entry = Ring.push t.ring entry

let word_address (entry : Entry.t) =
  match entry.record.payload with
  | Resim_trace.Record.Memory { address; _ } -> address lsr 2
  | Resim_trace.Record.Branch _ | Resim_trace.Record.Other _ ->
      invalid_arg "Lsq.word_address: not a memory operation"

(* A store's address is known once its base register (src1) is
   available; its data once src2 is. *)
let store_address_known (store : Entry.t) = store.src1_producer < 0
let store_data_ready (store : Entry.t) = store.src2_producer < 0

(* Decide one load's readiness by scanning every older store, nearest
   first: an unknown older address blocks; a matching known address
   forwards once the store data is ready; otherwise the load needs a
   D-cache read port. *)
let classify_load t ~position (load : Entry.t) =
  if not (Entry.sources_ready load) then Entry.Load_not_checked
  else begin
    let load_word = word_address load in
    let decision = ref Entry.Load_needs_port in
    (try
       for older = position - 1 downto 0 do
         let candidate = Ring.get t.ring older in
         if Entry.is_store candidate then
           if not (store_address_known candidate) then begin
             decision := Entry.Load_blocked;
             raise Exit
           end
           else if word_address candidate = load_word then begin
             decision :=
               (if store_data_ready candidate then Entry.Load_forward
                else Entry.Load_blocked);
             raise Exit
           end
       done
     with Exit -> ());
    !decision
  end

let refresh t =
  Ring.iteri
    (fun position (entry : Entry.t) ->
      if Entry.is_load entry && Entry.is_dispatched entry then
        entry.load_readiness <- classify_load t ~position entry)
    t.ring

(* Incremental variants for the event-driven closure family: instead of the
   per-cycle full refresh, a load is reclassified only when one of its
   classification inputs changes — its own sources resolve
   ([refresh_entry]), or an older store's address/data resolves or the
   store retires ([refresh_younger]). Classification of a load depends
   only on older stores, so a squash (which removes a suffix) never
   requires reclassifying the survivors. *)

let position_of t (entry : Entry.t) =
  let n = Ring.length t.ring in
  let rec scan i =
    if i >= n then None
    else if (Ring.get t.ring i).Entry.id = entry.id then Some i
    else scan (i + 1)
  in
  scan 0

let refresh_entry t (entry : Entry.t) =
  if Entry.is_load entry && Entry.is_dispatched entry then
    match position_of t entry with
    | Some position ->
        entry.load_readiness <- classify_load t ~position entry
    | None -> ()

let refresh_younger t ~than_id ~reclassified =
  Ring.iteri
    (fun position (entry : Entry.t) ->
      if
        entry.id > than_id && Entry.is_load entry
        && Entry.is_dispatched entry
      then begin
        entry.load_readiness <- classify_load t ~position entry;
        reclassified entry
      end)
    t.ring

let release_head t entry =
  match Ring.pop t.ring with
  | Some head when head.Entry.id = entry.Entry.id -> ()
  | Some head ->
      failwith
        (Printf.sprintf
           "Lsq.release_head: committing #%d but queue head is #%d"
           entry.Entry.id head.Entry.id)
  | None -> failwith "Lsq.release_head: queue empty"

let squash_younger t ~than_id =
  Ring.drop_while_back (fun (entry : Entry.t) -> entry.id > than_id) t.ring
