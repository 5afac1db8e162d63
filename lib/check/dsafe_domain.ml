module A = Dsafe_ast
module Inv = Dsafe_inventory

type summary = {
  src : A.source;
  inv : Inv.t;
  spawn_bodies : Parsetree.expression list;
      (* bodies that run on another domain (physical identity) *)
  guarded : (string, unit) Hashtbl.t;  (* keys with >= 1 locked access *)
  written : (string, unit) Hashtbl.t;  (* keys written anywhere *)
}

let inventory summary = summary.inv

(* --- module-level functions --------------------------------------- *)

let is_function (expr : Parsetree.expression) =
  match expr.pexp_desc with
  | Pexp_fun _ | Pexp_function _ -> true
  | _ -> false

let funmap_of (source : A.source) =
  List.concat_map
    (fun (item : Parsetree.structure_item) ->
      match item.pstr_desc with
      | Pstr_value (_, bindings) ->
          List.filter_map
            (fun (binding : Parsetree.value_binding) ->
              match binding.pvb_pat.ppat_desc with
              | Ppat_var { txt; _ } when is_function binding.pvb_expr ->
                  Some (txt, binding.pvb_expr)
              | _ -> None)
            bindings
      | _ -> [])
    source.structure

(* --- pass 2: find the domain-crossing bodies ---------------------- *)

(* A spawn-like argument position: an inline closure is marked
   directly; a (possibly partially applied) module-level function is
   resolved through [funmap]. *)
let spawn_arg_targets funmap (arg : Parsetree.expression) =
  match arg.pexp_desc with
  | Pexp_fun _ | Pexp_function _ -> [ arg ]
  | Pexp_ident { txt = Longident.Lident name; _ } -> (
      match List.assoc_opt name funmap with
      | Some body -> [ body ]
      | None -> [])
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt = Longident.Lident name; _ }; _ },
                _) -> (
      match List.assoc_opt name funmap with
      | Some body -> [ body ]
      | None -> [])
  | _ -> []

let rec collect_spawn_roots funmap acc (expr : Parsetree.expression) =
  let acc =
    match expr.pexp_desc with
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args)
      when A.is_spawn_like txt ->
        List.fold_left
          (fun acc (label, arg) ->
            match label with
            | Asttypes.Nolabel -> spawn_arg_targets funmap arg @ acc
            | _ -> acc)
          acc args
    | _ -> acc
  in
  List.fold_left (collect_spawn_roots funmap) acc (A.children expr)

(* Names of module-level functions mentioned under [expr] — used to
   close the spawn set transitively (a marked body calling a
   module-level helper drags the helper onto the other domain too). *)
let rec mentioned_functions funmap acc (expr : Parsetree.expression) =
  let acc =
    match expr.pexp_desc with
    | Pexp_ident { txt = Longident.Lident name; _ }
      when List.mem_assoc name funmap ->
        name :: acc
    | _ -> acc
  in
  List.fold_left (mentioned_functions funmap) acc (A.children expr)

let spawn_bodies_of source funmap =
  let roots =
    List.fold_left
      (fun acc (item : Parsetree.structure_item) ->
        match item.pstr_desc with
        | Pstr_value (_, bindings) ->
            List.fold_left
              (fun acc (binding : Parsetree.value_binding) ->
                collect_spawn_roots funmap acc binding.pvb_expr)
              acc bindings
        | _ -> acc)
      [] source.A.structure
  in
  (* Transitive closure over module-level functions. *)
  let marked = ref [] in
  let queue = Queue.create () in
  let push body =
    if not (List.memq body !marked) then begin
      marked := body :: !marked;
      Queue.add body queue
    end
  in
  List.iter push roots;
  while not (Queue.is_empty queue) do
    let body = Queue.take queue in
    List.iter
      (fun name ->
        match List.assoc_opt name funmap with
        | Some target -> push target
        | None -> ())
      (mentioned_functions funmap [] body)
  done;
  !marked

(* --- lock regions -------------------------------------------------- *)

let with_lock_parts (expr : Parsetree.expression) =
  match expr.pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args)
    when A.is_with_lock txt -> (
      let nolabel =
        List.filter_map
          (fun (label, arg) ->
            match label with Asttypes.Nolabel -> Some arg | _ -> None)
          args
      in
      match nolabel with
      | [ mutex; { pexp_desc = Pexp_fun (_, _, _, body); _ } ] ->
          Some (mutex, Some body)
      | [ mutex; _ ] | [ mutex ] -> Some (mutex, None)
      | _ -> None)
  | _ -> None

let lock_delta (expr : Parsetree.expression) =
  match expr.pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) ->
      if A.is_mutex_lock txt then 1 else if A.is_mutex_unlock txt then -1 else 0
  | _ -> 0

(* Shared traversal: visits every expression, tracking whether the
   current position is inside a lock region ([depth] > 0) and inside a
   domain-crossing body ([spawned]). [visit] sees every node. *)
let traverse summary ~visit =
  let rec walk ~depth ~spawned (expr : Parsetree.expression) =
    let spawned = spawned || List.memq expr summary.spawn_bodies in
    visit ~depth ~spawned expr;
    match with_lock_parts expr with
    | Some (mutex, body) -> (
        walk ~depth ~spawned mutex;
        match body with
        | Some body -> walk ~depth:(depth + 1) ~spawned body
        | None -> ())
    | None -> (
        match expr.pexp_desc with
        | Pexp_sequence (a, b) ->
            walk ~depth ~spawned a;
            walk ~depth:(max 0 (depth + lock_delta a)) ~spawned b
        | _ ->
            List.iter (walk ~depth ~spawned) (A.children expr))
  in
  List.iter
    (fun (item : Parsetree.structure_item) ->
      match item.pstr_desc with
      | Pstr_value (_, bindings) ->
          List.iter
            (fun (binding : Parsetree.value_binding) ->
              walk ~depth:0 ~spawned:false binding.pvb_expr)
            bindings
      | _ -> ())
    summary.src.A.structure

(* --- summaries ----------------------------------------------------- *)

(* The analysis is untyped, so a field name declared both [mutable] in
   one record and immutable in another (e.g. a private accumulator type
   mirrored by a public snapshot type) is ambiguous at a read site —
   reads of such names are not tracked. Writes stay tracked: a setfield
   is by definition a mutation. *)
let tracked_field (inv : Inv.t) field =
  List.mem field inv.Inv.mutable_fields
  && not (List.mem field inv.Inv.immutable_fields)

let summarize (source : A.source) (inv : Inv.t) =
  let summary =
    { src = source;
      inv;
      spawn_bodies = spawn_bodies_of source (funmap_of source);
      guarded = Hashtbl.create 16;
      written = Hashtbl.create 16 }
  in
  let mutable_fields field = tracked_field inv field in
  traverse summary ~visit:(fun ~depth ~spawned:_ expr ->
      match A.access_of_expr ~mutable_fields expr with
      | None -> ()
      | Some access ->
          if depth > 0 then Hashtbl.replace summary.guarded access.acc_key ();
          if access.acc_write then
            Hashtbl.replace summary.written access.acc_key ());
  summary

(* An inventory item's guard story, judged inside its own module. *)
let item_safe summary (item : Inv.item) =
  match item.item_kind with
  | A.Atomic_k | A.Mutex_k | A.Condition_k -> true
  | _ -> (
      match item.item_annot with
      | Some (A.Domain_local | A.Guarded_by _ | A.Lock_impl) -> true
      | Some (A.Unknown _) | None ->
          Hashtbl.mem summary.guarded ("cont:" ^ item.item_name)
          || Hashtbl.mem summary.guarded ("ref:" ^ item.item_name))

(* Resolve a mentioned identifier path to an inventory item, locally or
   across modules ([Runner.cache], [Resim_reports.Runner.cache], or an
   alias [module R = …; R.cache]). *)
let resolve_item ~global summary components =
  match List.rev components with
  | [] -> None
  | [ name ] -> (
      match Inv.find_item summary.inv name with
      | Some item -> Some (summary, item)
      | None -> None)
  | name :: modpath -> (
      let modname =
        match modpath with
        | alias :: _ -> (
            match List.assoc_opt alias summary.inv.Inv.aliases with
            | Some target -> target
            | None -> alias)
        | [] -> summary.inv.Inv.modname
      in
      match
        List.find_opt (fun s -> s.inv.Inv.modname = modname) global
      with
      | Some owner -> (
          match Inv.find_item owner.inv name with
          | Some item -> Some (owner, item)
          | None -> None)
      | None -> None)

let rec captured_paths acc (expr : Parsetree.expression) =
  let acc =
    match expr.pexp_desc with
    | Pexp_ident { txt; _ } -> A.flatten txt :: acc
    | _ -> acc
  in
  List.fold_left captured_paths acc (A.children expr)

(* --- the checking pass --------------------------------------------- *)

let check ~global summary =
  let findings = ref [] in
  let seen = Hashtbl.create 8 in
  let report ~file ~line ~code ~hint message =
    let key = (file, line, code) in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.replace seen key ();
      findings :=
        Diagnostic.error ~code
          ~subject:(Printf.sprintf "%s:%d" file line)
          ~hint message
        :: !findings
    end
  in
  let file = summary.src.A.path in
  let mutable_fields field = tracked_field summary.inv field in
  let access_annotated (access : A.access) =
    (match A.annot_at summary.src ~line:access.acc_line with
    | Some (A.Domain_local | A.Guarded_by _) -> true
    | _ -> false)
    ||
    match access.acc_root with
    | Some root -> (
        match Inv.find_item summary.inv root with
        | Some { item_annot = Some (A.Domain_local | A.Guarded_by _); _ } ->
            true
        | _ -> false)
    | None -> false
  in
  (* D002 / D003: per-access discipline. *)
  traverse summary ~visit:(fun ~depth ~spawned expr ->
      if depth = 0 then
        match A.access_of_expr ~mutable_fields expr with
        | None -> ()
        | Some access ->
            if not (access_annotated access) then
              if
                spawned
                && (access.acc_write
                   || Hashtbl.mem summary.written access.acc_key)
              then
                report ~file ~line:access.acc_line ~code:"RSM-D002"
                  ~hint:
                    "guard the access with with_lock, make the object \
                     Atomic.t, or annotate the confinement story \
                     (`resim-dsafe: domain-local` / `guarded-by <m>`)"
                  (Printf.sprintf
                     "unguarded %s of `%s` inside a domain-crossing closure"
                     (if access.acc_write then "write" else "racy read")
                     access.acc_key)
              else if Hashtbl.mem summary.guarded access.acc_key then
                report ~file ~line:access.acc_line ~code:"RSM-D003"
                  ~hint:
                    "this object is lock-guarded elsewhere in the module; \
                     take the same lock here or annotate why it is safe"
                  (Printf.sprintf
                     "access to lock-guarded `%s` outside its lock region"
                     access.acc_key));
  (* D001: captured objects with no guard story at all. *)
  List.iter
    (fun body ->
      List.iter
        (fun components ->
          match resolve_item ~global summary components with
          | None -> ()
          | Some (owner, item) ->
              if
                (not (Inv.is_shared_primitive item))
                && not (item_safe owner item)
              then
                report ~file:owner.inv.Inv.path ~line:item.Inv.item_line
                  ~code:"RSM-D001"
                  ~hint:
                    "make it Atomic.t, guard every access with one mutex, \
                     or annotate `resim-dsafe: domain-local` / \
                     `guarded-by <m>` on the binding"
                  (Printf.sprintf
                     "top-level mutable %s `%s.%s` is captured by a \
                      domain-crossing closure (spawned from %s) with no \
                      guard story"
                     (A.alloc_kind_name item.Inv.item_kind)
                     owner.inv.Inv.modname item.Inv.item_name
                     summary.inv.Inv.modname))
        (captured_paths [] body))
    summary.spawn_bodies;
  List.rev !findings
