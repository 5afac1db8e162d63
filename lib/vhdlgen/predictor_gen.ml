let pc_width = 30

let predictor_ports =
  Vhdl.
    [ { port_name = "clk"; direction = In; port_type = "std_logic" };
      { port_name = "reset"; direction = In; port_type = "std_logic" };
      { port_name = "predict_pc"; direction = In;
        port_type = std_logic_vector pc_width };
      { port_name = "actual_outcome"; direction = In;
        port_type = "std_logic" };
      { port_name = "prediction"; direction = Out; port_type = "std_logic" };
      { port_name = "update_en"; direction = In; port_type = "std_logic" };
      { port_name = "update_pc"; direction = In;
        port_type = std_logic_vector pc_width };
      { port_name = "update_taken"; direction = In; port_type = "std_logic" }
    ]

(* Saturating 2-bit counter training, shared by every table-based
   architecture; [slot] is a VHDL lvalue for the counter. *)
let train_counter slot =
  Printf.sprintf
    "      if update_taken = '1' then\n\
    \        if %s /= \"11\" then %s <= %s + 1; end if;\n\
    \      else\n\
    \        if %s /= \"00\" then %s <= %s - 1; end if;\n\
    \      end if;"
    slot slot slot slot slot slot

let fixed_architecture expression =
  Vhdl.architecture ~name:"rtl" ~of_entity:"direction_predictor"
    ~body:
      (Printf.sprintf "begin\n  prediction <= %s;" expression)

let bimodal_architecture ~table_entries =
  let index_bits = Vhdl.bits_for table_entries in
  let body =
    Printf.sprintf
      "  type counter_table_t is array (0 to %d) of unsigned(1 downto 0);\n\
      \  signal counters : counter_table_t := (others => \"10\");\n\
       begin\n\
      \  prediction <=\n\
      \    counters(to_integer(unsigned(predict_pc(%d downto 0))))(1);\n\n\
      \  train : process (clk)\n\
      \    variable slot : integer range 0 to %d;\n\
      \  begin\n\
      \    if rising_edge(clk) and update_en = '1' then\n\
      \      slot := to_integer(unsigned(update_pc(%d downto 0)));\n\
       %s\n\
      \    end if;\n\
      \  end process train;"
      (table_entries - 1) (index_bits - 1) (table_entries - 1)
      (index_bits - 1)
      (train_counter "counters(slot)")
  in
  Vhdl.architecture ~name:"rtl" ~of_entity:"direction_predictor" ~body

let two_level_architecture ~bht_entries ~history_bits ~pht_entries =
  let bht_index_bits = Vhdl.bits_for bht_entries in
  let pht_index_bits = Vhdl.bits_for pht_entries in
  let pc_bits = max 0 (pht_index_bits - history_bits) in
  let pht_index source =
    if pc_bits = 0 then
      Printf.sprintf "to_integer(%s) mod %d" source pht_entries
    else
      Printf.sprintf
        "to_integer(%s & unsigned(%s(%d downto 0))) mod %d" source
        (if source = "predict_history" then "predict_pc" else "update_pc")
        (pc_bits - 1) pht_entries
  in
  let body =
    Printf.sprintf
      "  -- Two-level predictor: %d-entry BHT of %d-bit histories, \
       %d-entry PHT.\n\
      \  type bht_t is array (0 to %d) of unsigned(%d downto 0);\n\
      \  type pht_t is array (0 to %d) of unsigned(1 downto 0);\n\
      \  signal bht : bht_t := (others => (others => '0'));\n\
      \  signal pht : pht_t := (others => \"10\");\n\
      \  signal predict_history : unsigned(%d downto 0);\n\
       begin\n\
      \  predict_history <=\n\
      \    bht(to_integer(unsigned(predict_pc(%d downto 0))) mod %d);\n\
      \  prediction <= pht(%s)(1);\n\n\
      \  train : process (clk)\n\
      \    variable bht_slot : integer range 0 to %d;\n\
      \    variable history : unsigned(%d downto 0);\n\
      \    variable pht_slot : integer range 0 to %d;\n\
      \  begin\n\
      \    if rising_edge(clk) and update_en = '1' then\n\
      \      bht_slot := to_integer(unsigned(update_pc(%d downto 0))) mod %d;\n\
      \      history := bht(bht_slot);\n\
      \      pht_slot := %s;\n\
       %s\n\
      \      bht(bht_slot) <=\n\
      \        history(%d downto 0) & update_taken;\n\
      \    end if;\n\
      \  end process train;"
      bht_entries history_bits pht_entries (bht_entries - 1)
      (history_bits - 1) (pht_entries - 1) (history_bits - 1)
      (bht_index_bits - 1) bht_entries
      (pht_index "predict_history")
      (bht_entries - 1) (history_bits - 1) (pht_entries - 1)
      (bht_index_bits - 1) bht_entries
      (pht_index "history")
      (train_counter "pht(pht_slot)")
      (history_bits - 2)
  in
  Vhdl.architecture ~name:"rtl" ~of_entity:"direction_predictor" ~body

let gshare_architecture ~history_bits ~pht_entries =
  let body =
    Printf.sprintf
      "  -- Gshare: one %d-bit global history xor-folded with the PC.\n\
      \  type pht_t is array (0 to %d) of unsigned(1 downto 0);\n\
      \  signal pht : pht_t := (others => \"10\");\n\
      \  signal ghr : unsigned(%d downto 0) := (others => '0');\n\
       begin\n\
      \  prediction <=\n\
      \    pht((to_integer(ghr xor unsigned(predict_pc(%d downto 0)))) mod %d)(1);\n\n\
      \  train : process (clk)\n\
      \    variable pht_slot : integer range 0 to %d;\n\
      \  begin\n\
      \    if rising_edge(clk) and update_en = '1' then\n\
      \      pht_slot :=\n\
      \        (to_integer(ghr xor unsigned(update_pc(%d downto 0)))) mod %d;\n\
       %s\n\
      \      ghr <= ghr(%d downto 0) & update_taken;\n\
      \    end if;\n\
      \  end process train;"
      history_bits (pht_entries - 1) (history_bits - 1) (history_bits - 1)
      pht_entries (pht_entries - 1) (history_bits - 1) pht_entries
      (train_counter "pht(pht_slot)")
      (history_bits - 2)
  in
  Vhdl.architecture ~name:"rtl" ~of_entity:"direction_predictor" ~body

let direction_predictor (config : Resim_bpred.Direction.config) =
  let description =
    match config with
    | Perfect -> "direction predictor: perfect oracle"
    | Static_taken -> "direction predictor: static taken"
    | Static_not_taken -> "direction predictor: static not-taken"
    | Bimodal { table_entries } ->
        Printf.sprintf "direction predictor: bimodal, %d counters"
          table_entries
    | Two_level { bht_entries; history_bits; pht_entries } ->
        Printf.sprintf "direction predictor: two-level %d/%d/%d" bht_entries
          history_bits pht_entries
    | Gshare { history_bits; pht_entries } ->
        Printf.sprintf "direction predictor: gshare %d/%d" history_bits
          pht_entries
  in
  let architecture =
    match config with
    | Perfect -> fixed_architecture "actual_outcome"
    | Static_taken -> fixed_architecture "'1'"
    | Static_not_taken -> fixed_architecture "'0'"
    | Bimodal { table_entries } -> bimodal_architecture ~table_entries
    | Two_level { bht_entries; history_bits; pht_entries } ->
        two_level_architecture ~bht_entries ~history_bits ~pht_entries
    | Gshare { history_bits; pht_entries } ->
        gshare_architecture ~history_bits ~pht_entries
  in
  Vhdl.header ~description
  ^ Vhdl.entity ~name:"direction_predictor" ~ports:predictor_ports
  ^ architecture

let btb (config : Resim_bpred.Btb.config) =
  let sets = config.entries / config.associativity in
  let set_bits = Vhdl.bits_for sets in
  let tag_bits = pc_width - set_bits in
  let way_arrays =
    String.concat "\n"
      (List.concat_map
         (fun way ->
           [ Printf.sprintf
               "  signal tags_%d    : tag_array_t := (others => \
                (others => '0'));"
               way;
             Printf.sprintf
               "  signal targets_%d : target_array_t := (others => \
                (others => '0'));"
               way;
             Printf.sprintf
               "  signal valid_%d   : std_logic_vector(0 to %d) := \
                (others => '0');"
               way (sets - 1) ])
         (List.init config.associativity Fun.id))
  in
  let way_hit index way =
    Printf.sprintf
      "    %s valid_%d(set) = '1' and tags_%d(set) = tag then\n\
      \      hit <= '1'; target <= targets_%d(set);"
      (if index = 0 then "if" else "elsif")
      way way way
  in
  let hits =
    String.concat "\n"
      (List.mapi way_hit (List.init config.associativity Fun.id))
  in
  let update_ways =
    String.concat "\n"
      (List.map
         (fun way ->
           Printf.sprintf
             "        if victim = %d then\n\
             \          tags_%d(uset) <= utag; targets_%d(uset) <= \
              update_target; valid_%d(uset) <= '1';\n\
             \        end if;"
             way way way way)
         (List.init config.associativity Fun.id))
  in
  let body =
    Printf.sprintf
      "  -- %d entries, %d-way: %d sets of %d-bit tags.\n\
      \  subtype tag_t is std_logic_vector(%d downto 0);\n\
      \  subtype target_t is std_logic_vector(%d downto 0);\n\
      \  type tag_array_t is array (0 to %d) of tag_t;\n\
      \  type target_array_t is array (0 to %d) of target_t;\n\
       %s\n\
      \  signal replace_ptr : integer range 0 to %d := 0;\n\
       begin\n\
      \  lookup : process (predict_pc, %s)\n\
      \    variable set : integer range 0 to %d;\n\
      \    variable tag : tag_t;\n\
      \  begin\n\
      \    set := to_integer(unsigned(predict_pc(%d downto 0)));\n\
      \    tag := predict_pc(%d downto %d);\n\
      \    hit <= '0'; target <= (others => '0');\n\
       %s\n\
      \    end if;\n\
      \  end process lookup;\n\n\
      \  install : process (clk)\n\
      \    variable uset : integer range 0 to %d;\n\
      \    variable utag : tag_t;\n\
      \    variable victim : integer range 0 to %d;\n\
      \  begin\n\
      \    if rising_edge(clk) and update_en = '1' then\n\
      \      uset := to_integer(unsigned(update_pc(%d downto 0)));\n\
      \      utag := update_pc(%d downto %d);\n\
      \      victim := replace_ptr;\n\
       %s\n\
      \      replace_ptr <= (replace_ptr + 1) mod %d;\n\
      \    end if;\n\
      \  end process install;"
      config.entries config.associativity sets tag_bits (tag_bits - 1)
      (pc_width - 1) (sets - 1) (sets - 1) way_arrays
      (config.associativity - 1)
      (String.concat ", "
         (List.concat_map
            (fun way ->
              [ Printf.sprintf "tags_%d" way;
                Printf.sprintf "targets_%d" way;
                Printf.sprintf "valid_%d" way ])
            (List.init config.associativity Fun.id)))
      (sets - 1) (set_bits - 1) (pc_width - 1) set_bits hits (sets - 1)
      (config.associativity - 1)
      (set_bits - 1) (pc_width - 1) set_bits update_ways
      config.associativity
  in
  Vhdl.header
    ~description:
      (Printf.sprintf "branch target buffer: %d entries, %d-way"
         config.entries config.associativity)
  ^ Vhdl.entity ~name:"btb"
      ~ports:
        Vhdl.
          [ { port_name = "clk"; direction = In; port_type = "std_logic" };
            { port_name = "predict_pc"; direction = In;
              port_type = std_logic_vector pc_width };
            { port_name = "hit"; direction = Out; port_type = "std_logic" };
            { port_name = "target"; direction = Out;
              port_type = std_logic_vector pc_width };
            { port_name = "update_en"; direction = In;
              port_type = "std_logic" };
            { port_name = "update_pc"; direction = In;
              port_type = std_logic_vector pc_width };
            { port_name = "update_target"; direction = In;
              port_type = std_logic_vector pc_width } ]
  ^ Vhdl.architecture ~name:"rtl" ~of_entity:"btb" ~body

let ras ~depth =
  let body =
    Printf.sprintf
      "  -- %d-entry circular return-address stack.\n\
      \  type stack_t is array (0 to %d) of std_logic_vector(%d downto 0);\n\
      \  signal stack : stack_t := (others => (others => '0'));\n\
      \  signal top : integer range 0 to %d := 0;\n\
      \  signal occupancy : integer range 0 to %d := 0;\n\
       begin\n\
      \  top_value <= stack((top + %d) mod %d);\n\
      \  empty <= '1' when occupancy = 0 else '0';\n\n\
      \  stack_ops : process (clk)\n\
      \  begin\n\
      \    if rising_edge(clk) then\n\
      \      if push_en = '1' then\n\
      \        stack(top) <= push_address;\n\
      \        top <= (top + 1) mod %d;\n\
      \        if occupancy < %d then occupancy <= occupancy + 1; end if;\n\
      \      elsif pop_en = '1' and occupancy > 0 then\n\
      \        top <= (top + %d) mod %d;\n\
      \        occupancy <= occupancy - 1;\n\
      \      end if;\n\
      \    end if;\n\
      \  end process stack_ops;"
      depth (depth - 1) (pc_width - 1) (depth - 1) depth (depth - 1) depth
      depth depth (depth - 1) depth
  in
  Vhdl.header
    ~description:(Printf.sprintf "return address stack: %d entries" depth)
  ^ Vhdl.entity ~name:"ras"
      ~ports:
        Vhdl.
          [ { port_name = "clk"; direction = In; port_type = "std_logic" };
            { port_name = "push_en"; direction = In; port_type = "std_logic" };
            { port_name = "push_address"; direction = In;
              port_type = std_logic_vector pc_width };
            { port_name = "pop_en"; direction = In; port_type = "std_logic" };
            { port_name = "top_value"; direction = Out;
              port_type = std_logic_vector pc_width };
            { port_name = "empty"; direction = Out; port_type = "std_logic" }
          ]
  ^ Vhdl.architecture ~name:"rtl" ~of_entity:"ras" ~body

let predictor_unit (config : Resim_bpred.Predictor.config) =
  [ ("direction_predictor.vhd", direction_predictor config.direction);
    ("btb.vhd", btb config.btb);
    ("ras.vhd", ras ~depth:config.ras_depth) ]
