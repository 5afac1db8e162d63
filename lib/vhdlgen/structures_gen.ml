let circular_queue ~name ~depth ~payload_bits =
  let body =
    Printf.sprintf
      "  -- %d-entry circular queue of %d-bit payloads.\n\
      \  type storage_t is array (0 to %d) of std_logic_vector(%d downto 0);\n\
      \  signal storage : storage_t := (others => (others => '0'));\n\
      \  signal head : integer range 0 to %d := 0;\n\
      \  signal tail : integer range 0 to %d := 0;\n\
      \  signal count : integer range 0 to %d := 0;\n\
       begin\n\
      \  full <= '1' when count = %d else '0';\n\
      \  empty <= '1' when count = 0 else '0';\n\
      \  head_data <= storage(head);\n\
      \  occupancy <= std_logic_vector(to_unsigned(count, %d));\n\n\
      \  queue_ops : process (clk)\n\
      \  begin\n\
      \    if rising_edge(clk) then\n\
      \      if flush = '1' then\n\
      \        head <= 0; tail <= 0; count <= 0;\n\
      \      else\n\
      \        if enqueue = '1' and count < %d then\n\
      \          storage(tail) <= enqueue_data;\n\
      \          tail <= (tail + 1) mod %d;\n\
      \        end if;\n\
      \        if dequeue = '1' and count > 0 then\n\
      \          head <= (head + 1) mod %d;\n\
      \        end if;\n\
      \        if enqueue = '1' and dequeue = '0' and count < %d then\n\
      \          count <= count + 1;\n\
      \        elsif dequeue = '1' and enqueue = '0' and count > 0 then\n\
      \          count <= count - 1;\n\
      \        end if;\n\
      \      end if;\n\
      \    end if;\n\
      \  end process queue_ops;"
      depth payload_bits (depth - 1) (payload_bits - 1) (depth - 1)
      (depth - 1) depth depth
      (Vhdl.bits_for (depth + 1))
      depth depth depth depth
  in
  Vhdl.header
    ~description:
      (Printf.sprintf "%s: %d x %d-bit circular queue" name depth
         payload_bits)
  ^ Vhdl.entity ~name
      ~ports:
        Vhdl.
          [ { port_name = "clk"; direction = In; port_type = "std_logic" };
            { port_name = "flush"; direction = In; port_type = "std_logic" };
            { port_name = "enqueue"; direction = In; port_type = "std_logic" };
            { port_name = "enqueue_data"; direction = In;
              port_type = std_logic_vector payload_bits };
            { port_name = "dequeue"; direction = In; port_type = "std_logic" };
            { port_name = "head_data"; direction = Out;
              port_type = std_logic_vector payload_bits };
            { port_name = "full"; direction = Out; port_type = "std_logic" };
            { port_name = "empty"; direction = Out; port_type = "std_logic" };
            { port_name = "occupancy"; direction = Out;
              port_type = std_logic_vector (Vhdl.bits_for (depth + 1)) } ]
  ^ Vhdl.architecture ~name:"rtl" ~of_entity:name ~body

let rename_table ~registers ~rob_entries =
  let reg_bits = Vhdl.bits_for registers in
  let rob_bits = Vhdl.bits_for rob_entries in
  let body =
    Printf.sprintf
      "  -- %d architectural registers -> %d-entry ROB tags.\n\
      \  type tag_array_t is array (0 to %d) of std_logic_vector(%d downto 0);\n\
      \  signal tags  : tag_array_t := (others => (others => '0'));\n\
      \  signal valid : std_logic_vector(0 to %d) := (others => '0');\n\
       begin\n\
      \  src1_tag   <= tags(to_integer(unsigned(src1_reg)));\n\
      \  src1_valid <= valid(to_integer(unsigned(src1_reg)));\n\
      \  src2_tag   <= tags(to_integer(unsigned(src2_reg)));\n\
      \  src2_valid <= valid(to_integer(unsigned(src2_reg)));\n\n\
      \  table_ops : process (clk)\n\
      \    variable slot : integer range 0 to %d;\n\
      \  begin\n\
      \    if rising_edge(clk) then\n\
      \      if flush = '1' then\n\
      \        valid <= (others => '0');\n\
      \      else\n\
      \        if clear_en = '1' then\n\
      \          slot := to_integer(unsigned(clear_reg));\n\
      \          if tags(slot) = clear_tag then\n\
      \            valid(slot) <= '0';\n\
      \          end if;\n\
      \        end if;\n\
      \        -- Define wins over a same-cycle clear of the same register.\n\
      \        if define_en = '1' then\n\
      \          slot := to_integer(unsigned(define_reg));\n\
      \          tags(slot) <= define_tag;\n\
      \          valid(slot) <= '1';\n\
      \        end if;\n\
      \      end if;\n\
      \    end if;\n\
      \  end process table_ops;"
      registers rob_entries (registers - 1) (rob_bits - 1) (registers - 1)
      (registers - 1)
  in
  Vhdl.header
    ~description:
      (Printf.sprintf "rename table: %d registers, %d-entry ROB" registers
         rob_entries)
  ^ Vhdl.entity ~name:"rename_table"
      ~ports:
        Vhdl.
          [ { port_name = "clk"; direction = In; port_type = "std_logic" };
            { port_name = "flush"; direction = In; port_type = "std_logic" };
            { port_name = "src1_reg"; direction = In;
              port_type = std_logic_vector reg_bits };
            { port_name = "src1_tag"; direction = Out;
              port_type = std_logic_vector rob_bits };
            { port_name = "src1_valid"; direction = Out;
              port_type = "std_logic" };
            { port_name = "src2_reg"; direction = In;
              port_type = std_logic_vector reg_bits };
            { port_name = "src2_tag"; direction = Out;
              port_type = std_logic_vector rob_bits };
            { port_name = "src2_valid"; direction = Out;
              port_type = "std_logic" };
            { port_name = "define_en"; direction = In;
              port_type = "std_logic" };
            { port_name = "define_reg"; direction = In;
              port_type = std_logic_vector reg_bits };
            { port_name = "define_tag"; direction = In;
              port_type = std_logic_vector rob_bits };
            { port_name = "clear_en"; direction = In;
              port_type = "std_logic" };
            { port_name = "clear_reg"; direction = In;
              port_type = std_logic_vector reg_bits };
            { port_name = "clear_tag"; direction = In;
              port_type = std_logic_vector rob_bits } ]
  ^ Vhdl.architecture ~name:"rtl" ~of_entity:"rename_table" ~body

(* The pre-decoded record width in the queues: opcode class, registers
   and a compressed target/address field — matches the trace format's
   fixed layout. *)
let record_bits = 48

let structures (config : Resim_core.Config.t) =
  [ ("ifq.vhd",
     circular_queue ~name:"ifq" ~depth:config.ifq_entries
       ~payload_bits:record_bits);
    ("decouple_buffer.vhd",
     circular_queue ~name:"decouple_buffer" ~depth:config.decouple_entries
       ~payload_bits:record_bits);
    ("rename_table.vhd",
     rename_table ~registers:Resim_isa.Reg.count
       ~rob_entries:config.rob_entries) ]
