type t = { mutable value : int; max : int; threshold : int }

let create ?(bits = 2) ?initial () =
  let top = (1 lsl bits) - 1 in
  let threshold = 1 lsl (bits - 1) in
  let value =
    match initial with
    | Some v -> (if v < 0 then 0 else if v > top then top else v)
    | None -> threshold
  in
  { value; max = top; threshold }

let predict_taken c = c.value >= c.threshold

let train c ~taken =
  if taken then (if c.value < c.max then c.value <- c.value + 1)
  else if c.value > 0 then c.value <- c.value - 1
