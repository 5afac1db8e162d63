type family = Virtex4 | Virtex5

type t = {
  name : string;
  family : family;
  slices : int;
  luts : int;
  brams : int;
  minor_cycle_mhz : float;
}

let virtex4_xc4vlx40 =
  { name = "xc4vlx40"; family = Virtex4; slices = 18_432; luts = 36_864;
    brams = 96; minor_cycle_mhz = 84.0 }

let virtex5_xc5vlx50t =
  { name = "xc5vlx50t"; family = Virtex5; slices = 7_200; luts = 28_800;
    brams = 60; minor_cycle_mhz = 105.0 }

let virtex5_xc5vlx330t =
  { name = "xc5vlx330t"; family = Virtex5; slices = 51_840; luts = 207_360;
    brams = 324; minor_cycle_mhz = 105.0 }

let all = [ virtex4_xc4vlx40; virtex5_xc5vlx50t; virtex5_xc5vlx330t ]
