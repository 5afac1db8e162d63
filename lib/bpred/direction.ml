type config =
  | Perfect
  | Static_taken
  | Static_not_taken
  | Bimodal of { table_entries : int }
  | Two_level of {
      bht_entries : int;
      history_bits : int;
      pht_entries : int;
    }
  | Gshare of { history_bits : int; pht_entries : int }

let two_level_default =
  Two_level { bht_entries = 4; history_bits = 8; pht_entries = 4096 }

type state =
  | S_fixed of bool option
      (** [None] = perfect, [Some b] = static direction [b] *)
  | S_bimodal of Saturating.t array
  | S_two_level of {
      bht : int array;
      hist_mask : int;
      pc_bits : int;  (* see [pc_bits], fixed when the table is built *)
      pht : Saturating.t array;
    }
  | S_gshare of {
      mutable history : int;
      hist_mask : int;
      pc_bits : int;
      pht : Saturating.t array;
    }

type t = { config : config; state : state }

let positive name value =
  if value <= 0 then
    invalid_arg (Printf.sprintf "Direction.create: %s must be positive" name)

let counters entries = Array.init entries (fun _ -> Saturating.create ())

let bits_of n =
  let rec loop n acc = if n <= 1 then acc else loop (n lsr 1) (acc + 1) in
  loop n 0

(* The PHT index holds the history register concatenated with as many
   low PC bits as the table leaves room for (e.g. 8 history bits + 4 PC
   bits fill the paper's 4096-entry PHT). *)
let pc_bits ~history_bits ~pht_entries =
  let bits = bits_of pht_entries - history_bits in
  if bits > 0 then bits else 0

let create config =
  let state =
    match config with
    | Perfect -> S_fixed None
    | Static_taken -> S_fixed (Some true)
    | Static_not_taken -> S_fixed (Some false)
    | Bimodal { table_entries } ->
        positive "table_entries" table_entries;
        S_bimodal (counters table_entries)
    | Two_level { bht_entries; history_bits; pht_entries } ->
        positive "bht_entries" bht_entries;
        positive "history_bits" history_bits;
        positive "pht_entries" pht_entries;
        S_two_level
          { bht = Array.make bht_entries 0;
            hist_mask = (1 lsl history_bits) - 1;
            pc_bits = pc_bits ~history_bits ~pht_entries;
            pht = counters pht_entries }
    | Gshare { history_bits; pht_entries } ->
        positive "history_bits" history_bits;
        positive "pht_entries" pht_entries;
        S_gshare
          { history = 0;
            hist_mask = (1 lsl history_bits) - 1;
            pc_bits = pc_bits ~history_bits ~pht_entries;
            pht = counters pht_entries }
  in
  { config; state }

let config t = t.config

let pattern_index ~pc ~history ~pc_bits ~pht_entries =
  let index = (history lsl pc_bits) lor (pc land ((1 lsl pc_bits) - 1)) in
  index mod pht_entries

let predict t ~pc ~actual =
  match t.state with
  | S_fixed None -> actual
  | S_fixed (Some direction) -> direction
  | S_bimodal table ->
      Saturating.predict_taken table.(pc mod Array.length table)
  | S_two_level { bht; pht; pc_bits; hist_mask = _ } ->
      let history = bht.(pc mod Array.length bht) in
      let index =
        pattern_index ~pc ~history ~pc_bits ~pht_entries:(Array.length pht)
      in
      Saturating.predict_taken pht.(index)
  | S_gshare { history; pht; pc_bits; hist_mask = _ } ->
      let index =
        pattern_index ~pc ~history:(history lxor pc) ~pc_bits
          ~pht_entries:(Array.length pht)
      in
      Saturating.predict_taken pht.(index)

let update t ~pc ~taken =
  match t.state with
  | S_fixed _ -> ()
  | S_bimodal table ->
      Saturating.train table.(pc mod Array.length table) ~taken
  | S_two_level { bht; hist_mask; pc_bits; pht } ->
      let slot = pc mod Array.length bht in
      let history = bht.(slot) in
      let index =
        pattern_index ~pc ~history ~pc_bits ~pht_entries:(Array.length pht)
      in
      Saturating.train pht.(index) ~taken;
      bht.(slot) <- ((history lsl 1) lor (if taken then 1 else 0)) land hist_mask
  | S_gshare g ->
      let index =
        pattern_index ~pc ~history:(g.history lxor pc) ~pc_bits:g.pc_bits
          ~pht_entries:(Array.length g.pht)
      in
      Saturating.train g.pht.(index) ~taken;
      g.history <-
        ((g.history lsl 1) lor (if taken then 1 else 0)) land g.hist_mask
