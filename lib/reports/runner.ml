type run = {
  kernel : string;
  config : Resim_core.Config.t;
  generated : Resim_tracegen.Generator.result;
  outcome : Resim_core.Resim.outcome;
}

type scale_spec = Resim_sweep.Sweep.scale = Default | Evaluation | Exact of int

(* The memo key is the full structural identity of a simulation: the
   kernel, the resolved scale and the complete engine configuration
   (which also determines the trace generator). Config.t is plain data,
   so polymorphic equality/hashing are exact. The table is shared
   between domains and every access is mutex-guarded; misses are
   computed outside the lock (a racing duplicate computation is
   harmless — the first store wins and both callers get it). *)
type cache_key = {
  ck_kernel : string;
  ck_scale : int;
  ck_config : Resim_core.Config.t;
}

let mutex = Mutex.create ()
let cache : (cache_key, run) Hashtbl.t = Hashtbl.create 32

let find key =
  Resim_core.Sync.with_lock mutex (fun () -> Hashtbl.find_opt cache key)

(* Returns the winning entry so racing callers share one [run]. *)
let store key run =
  Resim_core.Sync.with_lock mutex (fun () ->
      match Hashtbl.find_opt cache key with
      | Some existing -> existing
      | None ->
          Hashtbl.add cache key run;
          run)

let clear_cache () =
  Resim_core.Sync.with_lock mutex (fun () -> Hashtbl.reset cache)

let scale_tag workload scale =
  let module K = (val workload : Resim_workloads.Kernel_sig.S) in
  match scale with
  | Evaluation -> K.evaluation_scale
  | Default -> -1
  | Exact scale -> scale

let cache_key workload config scale =
  let module K = (val workload : Resim_workloads.Kernel_sig.S) in
  { ck_kernel = K.name; ck_scale = scale_tag workload scale;
    ck_config = config }

type request = {
  key : string;
  workload : Resim_workloads.Workload.t;
  config : Resim_core.Config.t;
  scale : scale_spec;
}

let request ~key ~config ?(scale = Evaluation) workload =
  { key; workload; config; scale }

let job_of_request request =
  let module K = (val request.workload : Resim_workloads.Kernel_sig.S) in
  Resim_sweep.Sweep.job
    ~label:(request.key ^ ":" ^ K.name)
    ~scale:request.scale ~config:request.config
    request.workload

let run_of_result (result : Resim_sweep.Sweep.result) =
  { kernel = Resim_workloads.Workload.name_of result.job.workload;
    config = result.job.config;
    generated = result.generated;
    outcome = result.outcome }

let run_kernel ~key ~config ?(scale = Evaluation) workload =
  let cache_key = cache_key workload config scale in
  match find cache_key with
  | Some run -> run
  | None ->
      let result =
        Resim_sweep.Sweep.run_job
          (job_of_request (request ~key ~config ~scale workload))
      in
      store cache_key (run_of_result result)

let prewarm ?jobs requests =
  let seen = Hashtbl.create 16 in
  let missing =
    List.filter
      (fun request ->
        let cache_key =
          cache_key request.workload request.config request.scale
        in
        if Hashtbl.mem seen cache_key || find cache_key <> None then false
        else begin
          Hashtbl.add seen cache_key ();
          true
        end)
      requests
  in
  (* Fail-fast: report-table inputs must all succeed, so each job runs
     through [run_job] and the lowest-index failure is raised again. *)
  let results =
    Resim_sweep.Pool.map
      ~jobs:(Option.value jobs ~default:(Resim_sweep.Pool.recommended_jobs ()))
      Resim_sweep.Sweep.run_job
      (Array.of_list (List.map job_of_request missing))
  in
  List.iter2
    (fun request result ->
      ignore
        (store
           (cache_key request.workload request.config request.scale)
           (run_of_result result)))
    missing (Array.to_list results)

let mips run ~device = Resim_core.Resim.mips run.outcome ~device

let mips_wrong_path run ~device =
  Resim_core.Resim.mips_with_wrong_path run.outcome ~device
