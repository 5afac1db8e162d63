type t = { l1 : Cache.t; l2 : Cache.t option }

let create ?timing l1_config ~l2 =
  { l1 = Cache.create ?timing l1_config; l2 }

let access t ~addr ~write =
  let l1_latency = Cache.access t.l1 ~addr ~write in
  let hit = (Cache.timing t.l1).hit_latency in
  if l1_latency <= hit then l1_latency
  else
    match t.l2 with
    | None -> l1_latency
    | Some l2 -> hit + Cache.access l2 ~addr ~write

let l1 t = t.l1
