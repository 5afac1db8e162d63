type port_direction = In | Out

type port = { port_name : string; direction : port_direction; port_type : string }

let bits_for n =
  let rec loop value bits = if value <= 1 then bits else loop ((value + 1) / 2) (bits + 1) in
  max 1 (loop n 0)

let header ~description =
  Printf.sprintf
    "-- %s\n\
     -- Generated by the ReSim VHDL generator; do not edit by hand.\n\
     library ieee;\n\
     use ieee.std_logic_1164.all;\n\
     use ieee.numeric_std.all;\n\n"
    description

let direction_keyword = function In -> "in " | Out -> "out"

let entity ~name ~ports =
  let buffer = Buffer.create 256 in
  Printf.bprintf buffer "entity %s is\n" name;
  Buffer.add_string buffer "  port (\n";
  let lines =
    List.map
      (fun p ->
        Printf.sprintf "    %-24s : %s %s" p.port_name
          (direction_keyword p.direction)
          p.port_type)
      ports
  in
  Buffer.add_string buffer (String.concat ";\n" lines);
  Buffer.add_string buffer "\n  );\n";
  Printf.bprintf buffer "end entity %s;\n\n" name;
  Buffer.contents buffer

let architecture ~name ~of_entity ~body =
  Printf.sprintf "architecture %s of %s is\n%s\nend architecture %s;\n" name
    of_entity body name

let std_logic_vector width =
  Printf.sprintf "std_logic_vector(%d downto 0)" (width - 1)
