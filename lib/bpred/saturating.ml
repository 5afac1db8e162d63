(* A 2-bit counter: values 0..3, predicting taken from 2 up. *)
type t = { mutable value : int }

let max_value = 3
let threshold = 2

let create () = { value = threshold }

let predict_taken c = c.value >= threshold

let train c ~taken =
  if taken then (if c.value < max_value then c.value <- c.value + 1)
  else if c.value > 0 then c.value <- c.value - 1
