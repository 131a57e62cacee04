(* Every metric the benchmark reports: name, unit, direction, and for
   a per-layer metric the end-to-end metric and workload it should
   move. BENCHMARK.json repeats the names, units and directions; a
   test keeps the two in step. *)

type metric = {
  name : string;
  unit : string;
  better : [ `Higher | `Lower ];
  moves : string;  (** per-layer only: end-to-end metric -> workload *)
}

let m ?(moves = "") name unit better = { name; unit; better; moves }

let end_to_end =
  [ m "app_winstr_per_s" "winstr/s" `Higher;
    m "op_p50_s" "s" `Lower;
    m "op_tail_s" "s" `Lower;
    m "setup_s" "s" `Lower;
    m "peak_rss_mb" "MB" `Lower;
    m "ok_ratio" "ratio" `Higher ]

let gpu_time = "app_winstr_per_s, op_p50_s -> sim-plain (most), profile-tools"

let modelled = "ok_ratio -> all (must not move for a simulator-speed change)"

let gc = "app_winstr_per_s -> sim-plain; peak_rss_mb -> all"

let sassi = "op_p50_s, app_winstr_per_s -> profile-tools; none -> sim-plain"

let cupti = "op_p50_s -> profile-tools (CUPTI ops)"

let kernel = "setup_s -> all; op_p50_s -> serve-campaign"

let serving = "op_p50_s, op_tail_s -> serve-campaign"

let per_layer =
  [ m "gpu.launch_s" "s" `Lower ~moves:gpu_time;
    m "gpu.ns_per_winstr" "ns/winstr" `Lower ~moves:gpu_time;
    m "gpu.us_per_launch" "us/launch" `Lower ~moves:gpu_time;
    m "gpu.launches_per_op" "count" `Lower ~moves:gpu_time;
    m "gpu.device_create_s" "s" `Lower ~moves:gpu_time;
    m "gpu.winstr_per_op" "count" `Lower ~moves:modelled;
    m "gpu.sim_cycles_per_op" "cycles" `Lower ~moves:modelled;
    m "gpu.l1_hit_ratio" "ratio" `Higher ~moves:modelled;
    m "gpu.l2_hit_ratio" "ratio" `Higher ~moves:modelled;
    m "gpu.transactions_per_op" "count" `Lower ~moves:modelled;
    m "gpu.shared_conflicts_per_op" "cycles" `Lower ~moves:modelled;
    m "gc.minor_words_per_winstr" "words/winstr" `Lower ~moves:gc;
    m "gc.minor_gcs_per_op" "count" `Lower ~moves:gc;
    m "gc.major_gcs_per_op" "count" `Lower ~moves:gc;
    m "gc.promoted_words_per_op" "words" `Lower ~moves:gc;
    m "sassi.inject_s" "s" `Lower ~moves:sassi;
    m "sassi.hcalls_per_op" "count" `Lower ~moves:sassi;
    m "sassi.handler_s" "s" `Lower ~moves:sassi;
    m "sassi.handler_ns_per_call" "ns" `Lower ~moves:sassi;
    m "sassi.injected_winstr_ratio" "ratio" `Lower ~moves:sassi;
    m "cupti.records_per_op" "count" `Lower ~moves:cupti;
    m "cupti.pc_samples_per_op" "count" `Lower ~moves:cupti;
    m "cupti.ns_per_winstr" "ns/winstr" `Lower ~moves:cupti;
    m "prof.report_s" "s" `Lower ~moves:cupti;
    m "kernel.compile_s" "s" `Lower ~moves:kernel;
    m "kernel.compiles_per_op" "count" `Lower ~moves:kernel;
    m "kernel.cache_hit_ratio" "ratio" `Higher ~moves:kernel;
    m "workloads.driver_s" "s" `Lower
      ~moves:"op_p50_s -> serve-campaign; none -> sim-plain";
    m "par.tasks_per_op" "count" `Lower ~moves:serving;
    m "par.steals_per_op" "count" `Lower ~moves:serving;
    m "par.idle_wakes_per_op" "count" `Lower ~moves:serving;
    m "runner.job_s" "s" `Lower ~moves:serving;
    m "runner.reduce_s" "s" `Lower ~moves:serving;
    m "serve.post_s" "s" `Lower ~moves:serving;
    m "serve.queue_wait_s" "s" `Lower ~moves:serving;
    m "serve.exec_s" "s" `Lower ~moves:serving;
    m "serve.completion_lag_s" "s" `Lower ~moves:serving;
    m "serve.manifest_get_s" "s" `Lower ~moves:serving;
    m "serve.http_s" "s" `Lower ~moves:serving;
    m "trace.overhead_ratio" "ratio" `Lower
      ~moves:"none; checks that the trace can be trusted";
    m "trace.unattributed_share" "ratio" `Lower
      ~moves:"none; checks that the trace can be trusted" ]

let better_to_string = function
  | `Higher -> "higher"
  | `Lower -> "lower"
