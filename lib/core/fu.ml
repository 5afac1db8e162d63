type t = {
  config : Config.t;
  mutable alu_used : int;
  mutable mult_used : int;
  div_busy_until : int array;
}

type request = Alu | Mult | Div

let no_unit = -1

let create (config : Config.t) =
  { config;
    alu_used = 0;
    mult_used = 0;
    div_busy_until = Array.make config.div_count 0 }

let begin_cycle t =
  t.alu_used <- 0;
  t.mult_used <- 0

(* Returns the operation latency, or [no_unit]: the result feeds the
   issue loop once per attempt, so it must not box an option. *)
let try_allocate t request ~now =
  match request with
  | Alu ->
      if t.alu_used < t.config.alu_count then begin
        t.alu_used <- t.alu_used + 1;
        t.config.alu_latency
      end
      else no_unit
  | Mult ->
      if t.mult_used < t.config.mult_count then begin
        t.mult_used <- t.mult_used + 1;
        t.config.mult_latency
      end
      else no_unit
  | Div ->
      let rec scan i =
        if i >= Array.length t.div_busy_until then no_unit
        else if t.div_busy_until.(i) <= now then begin
          t.div_busy_until.(i) <- now + t.config.div_latency;
          t.config.div_latency
        end
        else scan (i + 1)
      in
      scan 0

let flush t = Array.fill t.div_busy_until 0 (Array.length t.div_busy_until) 0
