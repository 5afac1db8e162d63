module type S = sig
  val name : string
  val description : string
  val program : ?scale:int -> unit -> Resim_isa.Program.t
  val evaluation_scale : int
end
