type t = (module Kernel_sig.S)

let all : t list =
  [ (module Gzip_like); (module Bzip2_like); (module Parser_like);
    (module Vortex_like); (module Vpr_like) ]

let extended : t list = [ (module Mcf_like); (module Twolf_like) ]

let name_of (module K : Kernel_sig.S) = K.name
let description_of (module K : Kernel_sig.S) = K.description

let find name =
  match List.find_opt (fun k -> name_of k = name) (all @ extended) with
  | Some k -> k
  | None -> raise Not_found

let names = List.map name_of all

let program_of (module K : Kernel_sig.S) ?scale () = K.program ?scale ()
