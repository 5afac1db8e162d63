type t = {
  generator : Generator.t;
  pending : Resim_trace.Record.t Queue.t;
}

let create ~config program =
  let pending = Queue.create () in
  { generator =
      Generator.create ~config ~emit:(fun r -> Queue.add r pending) program;
    pending }

let rec pull t =
  match Queue.take_opt t.pending with
  | Some _ as record -> record
  | None -> if Generator.step t.generator then pull t else None

let correct_path t = Generator.correct_path t.generator
let wrong_path t = Generator.wrong_path t.generator
