(* A parallel map: workers claim indices from one atomic counter and
   return what they computed through [Domain.join]. The counter is the
   only state shared while they run; each worker's results live in its
   own list until the join hands them to the calling domain. *)

let map ?prof ~jobs f input =
  (* With a profile attached, charge each element's run to pool/run
     (Prof is mutex-guarded, so worker domains share one profile
     safely). Without one, no clock is read. *)
  let run =
    match prof with
    | None -> f
    | Some prof -> fun x -> Resim_obs.Prof.time prof "pool/run" (fun () -> f x)
  in
  let n = Array.length input in
  if jobs <= 1 || n <= 1 then Array.map run input
  else begin
    let next = Atomic.make 0 in
    let worker () =
      let rec claim results =
        let i = Atomic.fetch_and_add next 1 in
        if i >= n then results
        else
          let outcome =
            match run input.(i) with
            | value -> Ok value
            | exception exn -> Error (exn, Printexc.get_raw_backtrace ())
          in
          claim ((i, outcome) :: results)
      in
      claim []
    in
    let workers = Array.init (min jobs n) (fun _ -> Domain.spawn worker) in
    let outcomes = Array.make n None in
    Array.iter
      (fun domain ->
        List.iter (fun (i, outcome) -> outcomes.(i) <- Some outcome)
          (Domain.join domain))
      workers;
    (* Every index was claimed exactly once, so every slot is filled;
       the scan in index order finds the lowest-index failure first. *)
    Array.map
      (function
        | Some (Ok value) -> value
        | Some (Error (exn, backtrace)) ->
            Printexc.raise_with_backtrace exn backtrace
        | None -> assert false)
      outcomes
  end

let recommended_jobs () = Domain.recommended_domain_count ()
