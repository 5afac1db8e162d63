(* Named monotonic counters for long-lived services (DESIGN.md §16).

   The job server increments these from the accept loop, the worker
   supervisor, and the cache — three different domains — so every cell
   is an [Atomic.t]. The table itself is immutable after [make]
   (an assoc list of name → cell), which keeps the whole module
   resim-dsafe clean with no locks at all: lookups read immutable
   structure, updates go through Atomic. *)

type t = (string * int Atomic.t) list

let make names =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun name ->
      if Hashtbl.mem seen name then
        invalid_arg ("Counters.make: duplicate counter " ^ name);
      Hashtbl.add seen name ())
    names;
  List.map (fun name -> (name, Atomic.make 0)) names

let cell t name =
  match List.assoc_opt name t with
  | Some cell -> cell
  | None -> invalid_arg ("Counters: unknown counter " ^ name)

let incr t name = Atomic.incr (cell t name)
let add t name n = ignore (Atomic.fetch_and_add (cell t name) n)
let get t name = Atomic.get (cell t name)
let snapshot t = List.map (fun (name, cell) -> (name, Atomic.get cell)) t
