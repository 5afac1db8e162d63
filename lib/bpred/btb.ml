type config = { entries : int; associativity : int }

let default_config = { entries = 512; associativity = 1 }

type way = { mutable tag : int; mutable target : int; mutable stamp : int }
(* tag = -1 marks an invalid way; [stamp] implements LRU. *)

type t = { config : config; sets : way array array; mutable clock : int }

let create config =
  if config.entries <= 0 || config.associativity <= 0 then
    invalid_arg "Btb.create: entries and associativity must be positive";
  if config.entries mod config.associativity <> 0 then
    invalid_arg "Btb.create: associativity must divide entries";
  let set_count = config.entries / config.associativity in
  let sets =
    Array.init set_count (fun _ ->
        Array.init config.associativity (fun _ ->
            { tag = -1; target = 0; stamp = 0 }))
  in
  { config; sets; clock = 0 }

let config t = t.config

let set_count t = Array.length t.sets

let split t pc =
  let index = pc mod set_count t in
  let tag = pc / set_count t in
  (index, tag)

let tick t =
  t.clock <- t.clock + 1;
  t.clock

let lookup t ~pc =
  let index, tag = split t pc in
  let set = t.sets.(index) in
  let rec scan i =
    if i >= Array.length set then None
    else if set.(i).tag = tag then begin
      set.(i).stamp <- tick t;
      Some set.(i).target
    end
    else scan (i + 1)
  in
  scan 0

let update t ~pc ~target =
  let index, tag = split t pc in
  let set = t.sets.(index) in
  let rec find_slot i best =
    if i >= Array.length set then best
    else if set.(i).tag = tag then i
    else
      let best =
        if set.(i).tag = -1 && set.(best).tag <> -1 then i
        else if
          set.(i).tag <> -1 && set.(best).tag <> -1
          && set.(i).stamp < set.(best).stamp
        then i
        else best
      in
      find_slot (i + 1) best
  in
  let slot = find_slot 1 0 in
  (* If an exact tag match exists anywhere, prefer it over the LRU way. *)
  let slot =
    let rec exact i =
      if i >= Array.length set then slot
      else if set.(i).tag = tag then i
      else exact (i + 1)
    in
    exact 0
  in
  set.(slot).tag <- tag;
  set.(slot).target <- target;
  set.(slot).stamp <- tick t
