(** Ablation studies over the design choices DESIGN.md calls out.

    All use the gzip kernel at its default (small) scale unless noted,
    so they run in seconds; the conclusions are scale-independent. *)

val requests : unit -> Runner.request list
(** The full ablation grid: every memoisable (kernel, configuration,
    scale) simulation the ablations and Tables 1/3 run — the Table 1
    left/right columns over all five kernels, the gzip ablation
    configurations (reference and the width-sweep variants) and the
    default-scale runs of the in-order comparison. Ordered and
    duplicate-free, so it can be handed to {!Runner.prewarm} or run
    directly as a {!Resim_sweep.Sweep}. *)

val print_all : Format.formatter -> unit
(** Prewarms the grid across the host's recommended domain count, then
    prints every ablation; the printed output is identical at any
    domain count. *)
