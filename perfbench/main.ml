(* perfbench: the repository benchmark (see perfbench/README.md).

     bash perfbench/run.sh --workload W --seed N --seconds S --trace 0|1
     bash perfbench/run.sh --workload all --seed N --seconds S --trace 0|1
     bash perfbench/run.sh --regen-golden perfbench/golden.json

   The process started by run.sh is a small parent. It starts every
   set-up sample and the measured run as child processes of this same
   executable (--role setup|main), so each workload runs in a process
   of its own and set-up is timed from a real process start. It prints
   the run metadata, a table of the metrics and, as its last line,
   one JSON result. *)

module J = Trace.Json
module H = Perfbench.Helpers
module G = Perfbench.Golden
module C = Perfbench.Catalog

let now = Obs.Clock.now_s

let golden_path = Filename.concat "perfbench" "golden.json"

let ready_line = "perfbench-ready"

(* Cold set-ups per untraced run: set-up time is the median over this
   many fresh processes (the measured run's own included), because
   one process start alone does not repeat within a tenth. *)
let setup_samples = 5

(* One served campaign that takes longer than this failed. *)
let op_deadline_s = 60.0

(* Each child must end within this, so a run ends within 180 s. *)
let run_budget_s = 170.0

(* --- Workloads ---------------------------------------------------------- *)

let inp workload variant = { Ops.workload; variant }

(* sim-plain: compute with shared tiles (sgemm), irregular gathers
   (spmv), divergence (bfs), and per-launch overhead (nw: 191
   launches, gaussian: 141). *)
let sim_mix =
  List.map
    (fun i -> Ops.Plain i)
    [ inp "parboil/sgemm" "medium"; inp "parboil/spmv" "large";
      inp "parboil/bfs" "1M"; inp "rodinia/nw" "default";
      inp "rodinia/gaussian" "default" ]

(* profile-tools: small inputs, each under one of the case-study tools
   and under CUPTI with every sink on. The costly tools (value,
   errprof) run on the cheap bfs SF, which keeps a run near 100 ops.
   Eleven ops a round, sized so the median falls among five kinds of
   nearly equal latency. The slowest kind, errprof, runs twice a
   round: that puts the p90 (about 1.1 ops a round beyond it) near
   the middle of its 2 ops a round, never on the gap below them,
   where it would be the maximum of the next kind's samples. *)
let profile_mix =
  let spmv = inp "parboil/spmv" "medium" and bfs = inp "parboil/bfs" "SF" in
  let nw = inp "rodinia/nw" "default" in
  let pathfinder = inp "rodinia/pathfinder" "default" in
  [ Ops.Sassi_tool (Ops.Branch, pathfinder); Ops.Sassi_tool (Ops.Branch, bfs);
    Ops.Sassi_tool (Ops.Branch, spmv); Ops.Sassi_tool (Ops.Memdiv, nw);
    Ops.Sassi_tool (Ops.Value, bfs); Ops.Sassi_tool (Ops.Errprof, bfs) ]
  @ List.map (fun i -> Ops.Cupti_all i) [ spmv; bfs; nw; pathfinder ]
  @ [ Ops.Sassi_tool (Ops.Errprof, bfs) ]

(* serve-campaign: the golden table holds these campaigns; the
   benchmark seed orders them. Six small campaigns (one injection) and
   two larger ones (four injections) a round: the p90 (0.8 ops a round
   beyond it) then lies near the middle of the larger campaigns'
   latencies, not in the thin upper tail of one cluster, where a few
   ops slowed by other tenants of the host would decide it. *)
let campaign_kinds =
  Array.of_list
    (List.map
       (fun (seed, injections) -> { Serve_client.seed; injections })
       [ (101, 1); (202, 1); (303, 1); (404, 1); (505, 1); (606, 1);
         (707, 4); (808, 4) ])

let workload_names = [ "sim-plain"; "profile-tools"; "serve-campaign" ]

(* --- Samples ------------------------------------------------------------ *)

type sample = {
  kind : int;  (** index of the op kind in the mix *)
  secs : float;
  ok : bool;
  app : int;  (** application warp-instructions; 0 when not OK *)
  stats : Gpu.Stats.t option;  (** in-process ops: simulated stats *)
  records : int;
  pc_samples : int;
  served : Serve_client.served option;
}

let errors = ref []

let failed secs msg =
  errors := msg :: !errors;
  { kind = -1; secs; ok = false; app = 0; stats = None; records = 0; pc_samples = 0;
    served = None }

type bench = {
  b_ids : string array;  (** the op mix, one op kind each *)
  b_run : int -> sample;  (** run op [i] of the mix, timed *)
  b_warmup : int list;  (** mix indices run during set-up *)
  b_finish : unit -> unit;
  b_port : int option;  (** serve-campaign's daemon *)
}

let app_of golden (i : Ops.input) =
  Option.bind (G.find golden ("run:" ^ Ops.input_id i)) (fun e ->
      G.int_field e "warp_instrs")

let checked golden id fields =
  match G.find golden id with
  | None -> Error ("no golden entry for " ^ id)
  | Some expected ->
    Result.map_error (fun d -> id ^ ": " ^ d) (G.check ~expected ~observed:fields)

let op_class = function
  | Ops.Plain _ -> "plain"
  | Ops.Sassi_tool _ -> "sassi"
  | Ops.Cupti_all _ -> "cupti"

let in_process golden ~warmup kinds =
  let mix = Array.of_list kinds in
  let run k =
    let kind = mix.(k) in
    let id = Ops.id kind in
    let t0 = now () in
    let r =
      try
        Ok
          (Obs.Tracer.with_span ~cat:"bench.op"
             ~attrs:[ ("class", Obs.Span.Str (op_class kind)) ]
             id
             (fun () -> Ops.run kind))
      with e -> Error (id ^ ": raised " ^ Printexc.to_string e)
    in
    let secs = now () -. t0 in
    match r with
    | Error e -> failed secs e
    | Ok o ->
      (match
         (checked golden id o.Ops.fields, app_of golden (Ops.input_of kind))
       with
       | Error e, _ -> failed secs e
       | Ok (), None -> failed secs (id ^ ": no golden application count")
       | Ok (), Some app ->
         { kind = k; secs; ok = true; app; stats = Some o.Ops.stats;
           records = o.Ops.records; pc_samples = o.Ops.pc_samples;
           served = None })
  in
  { b_ids = Array.map Ops.id mix; b_run = run; b_warmup = warmup;
    b_finish = ignore; b_port = None }

(* Shut the daemon down and join it; a job stuck past its deadline
   would block the shutdown forever, so give up waiting after a
   while and let the process exit take it. *)
let stop_daemon d th =
  let finished = Atomic.make false in
  let stopper =
    Thread.create
      (fun () ->
         Serve.Daemon.shutdown d;
         Thread.join th;
         Atomic.set finished true)
      ()
  in
  let t0 = now () in
  while (not (Atomic.get finished)) && now () -. t0 < 20.0 do
    Thread.delay 0.01
  done;
  if Atomic.get finished then Thread.join stopper
  else errors := "daemon did not shut down within 20 s" :: !errors

let serve_bench golden =
  let d =
    Serve.Daemon.create
      { Serve.Daemon.default_config with
        Serve.Daemon.cfg_port = 0;
        cfg_access_log = None }
  in
  let th = Serve.Daemon.start d in
  let port = Serve.Daemon.port d in
  let app = app_of golden Serve_client.input in
  let run k =
    let kind = campaign_kinds.(k) in
    let id = Serve_client.id kind in
    let t0 = now () in
    let r =
      try Serve_client.op d ~port ~deadline:(t0 +. op_deadline_s) kind
      with e -> Error ("raised " ^ Printexc.to_string e)
    in
    let secs = now () -. t0 in
    match (r, app) with
    | Error e, _ -> failed secs (id ^ ": " ^ e)
    | Ok _, None -> failed secs (id ^ ": no golden application count")
    | Ok s, Some a ->
      (match checked golden id s.Serve_client.s_fields with
       | Error e -> failed secs e
       | Ok () ->
         { kind = k; secs; ok = true;
           app = Serve_client.runs_per_campaign kind * a; stats = None;
           records = 0; pc_samples = 0; served = Some s })
  in
  { b_ids = Array.map Serve_client.id campaign_kinds; b_run = run;
    b_warmup = [ 0 ];
    b_finish = (fun () -> stop_daemon d th); b_port = Some port }

let make_bench golden = function
  | "sim-plain" -> in_process golden ~warmup:[ 0; 1; 2; 3; 4 ] sim_mix
  | "profile-tools" ->
    (* Every input under CUPTI, and one SASSI tool. *)
    in_process golden ~warmup:[ 0; 6; 7; 8; 9 ] profile_mix
  | "serve-campaign" -> serve_bench golden
  | w -> invalid_arg ("unknown workload " ^ w)

(* --- The closed loop ---------------------------------------------------- *)

(* The op order of one round: a seeded permutation of the whole mix,
   so every run executes the same multiset of ops. *)
let order ~seed ~round n =
  let st = Random.State.make [| seed; round |] in
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* A run times at least this many ops, so op_tail_s is the p90 (ten
   or more ops beyond it) on any host, not a percentile that changes
   with host speed. *)
let min_timed_ops = 100

(* Whole rounds until [seconds] have passed and [min_ops] ops ran,
   or exactly [rounds] rounds. *)
let run_phase bench ~seed ?(min_ops = 0) ?rounds seconds =
  let samples = ref [] and n = ref 0 in
  let t0 = now () in
  let more () =
    match rounds with
    | Some r -> !n < r
    | None ->
      now () -. t0 < seconds || List.compare_length_with !samples min_ops < 0
  in
  while more () do
    Array.iter
      (fun k -> samples := { (bench.b_run k) with kind = k } :: !samples)
      (order ~seed ~round:!n (Array.length bench.b_ids));
    incr n
  done;
  (List.rev !samples, !n)

(* --- End-to-end metrics ------------------------------------------------- *)

let sum f l = List.fold_left (fun acc x -> acc +. f x) 0.0 l

let isum f l = List.fold_left (fun acc x -> acc + f x) 0 l

let tail_of samples =
  let sorted = H.sorted_of_list (List.map (fun s -> s.secs) samples) in
  let n = Array.length sorted in
  match H.tail_percentile n with
  | Some q -> (H.percentile sorted q, Printf.sprintf "p%g" q, H.beyond ~n q)
  | None -> (sorted.(n - 1), "max", 0)

let json_float f = J.Float (if Float.is_finite f then f else 0.0)

(* Distinct elements of [l], in first-seen order. *)
let uniq l =
  List.rev
    (List.fold_left (fun acc x -> if List.mem x acc then acc else x :: acc) [] l)

(* Median latency of each op kind, in mix order; a kind that runs
   more than once a round is one entry. *)
let kind_medians bench samples =
  List.map
    (fun id ->
       let l =
         List.filter_map
           (fun s -> if bench.b_ids.(s.kind) = id then Some s.secs else None)
           samples
       in
       (id, json_float (if l = [] then 0.0 else H.median (H.sorted_of_list l))))
    (uniq (Array.to_list bench.b_ids))

(* Every end-to-end metric but setup_s, which the parent measures. *)
let end_to_end ~peak_rss_mb samples =
  let sorted = H.sorted_of_list (List.map (fun s -> s.secs) samples) in
  let tail, _, _ = tail_of samples in
  let ok = List.length (List.filter (fun s -> s.ok) samples) in
  [ ("app_winstr_per_s",
     H.winstr_per_s (List.map (fun s -> (s.app, s.secs)) samples));
    ("op_p50_s", H.median sorted);
    ("op_tail_s", tail);
    ("peak_rss_mb", peak_rss_mb);
    ("ok_ratio", float ok /. float (List.length samples)) ]

(* --- Per-layer metrics -------------------------------------------------- *)

let div a b = if b = 0.0 then 0.0 else a /. b

let to_hspan (sp : Obs.Span.t) =
  match sp.Obs.Span.sp_kind with
  | Obs.Span.Complete d ->
    let start = float sp.Obs.Span.sp_ts_us /. 1e6 in
    Some
      { H.key = sp.Obs.Span.sp_cat; track = sp.Obs.Span.sp_track; start;
        stop = start +. (float d /. 1e6) }
  | _ -> None

let count_spans spans f = float (List.length (List.filter f spans))

(* One compile, as opposed to one of its phases. *)
let is_compile (sp : Obs.Span.t) =
  sp.Obs.Span.sp_cat = "compile"
  && String.starts_with ~prefix:"compile:" sp.Obs.Span.sp_name

let is_launch (sp : Obs.Span.t) = sp.Obs.Span.sp_cat = "launch"

(* Warp-instructions a sample simulated, injected ones included. *)
let winstr_of s =
  Option.fold ~none:0 ~some:(fun st -> st.Gpu.Stats.warp_instrs) s.stats

let total_dur spans cat =
  sum
    (fun sp -> float (Obs.Span.duration_us sp) /. 1e6)
    (List.filter (fun sp -> sp.Obs.Span.sp_cat = cat) spans)

(* GC counts over a phase of [ops] ops that simulated [winstr]
   warp-instructions. *)
let gc_layers ~ops ~winstr (a : Gc.stat) (b : Gc.stat) =
  [ ("gc.minor_words_per_winstr",
     div (b.Gc.minor_words -. a.Gc.minor_words) winstr);
    ("gc.minor_gcs_per_op",
     div (float (b.Gc.minor_collections - a.Gc.minor_collections)) ops);
    ("gc.major_gcs_per_op",
     div (float (b.Gc.major_collections - a.Gc.major_collections)) ops);
    ("gc.promoted_words_per_op",
     div (b.Gc.promoted_words -. a.Gc.promoted_words) ops) ]

(* Modelled-hardware counts from simulated stats, as (name, value). *)
let modelled ~nops counters =
  let c k = float (Option.value ~default:0 (List.assoc_opt k counters)) in
  [ ("gpu.winstr_per_op", c "warp_instrs" /. nops);
    ("gpu.sim_cycles_per_op", c "cycles" /. nops);
    ("gpu.l1_hit_ratio", div (c "l1_hits") (c "l1_hits" +. c "l1_misses"));
    ("gpu.l2_hit_ratio", div (c "l2_hits") (c "l2_hits" +. c "l2_misses"));
    ("gpu.transactions_per_op", c "global_transactions" /. nops);
    ("gpu.shared_conflicts_per_op", c "shared_conflicts" /. nops) ]

let sum_counters lists =
  let tbl = Hashtbl.create 32 in
  List.iter
    (List.iter (fun (k, v) ->
         Hashtbl.replace tbl k
           (v + Option.value ~default:0 (Hashtbl.find_opt tbl k))))
    lists;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []

(* Per-layer metrics of an in-process workload. Launch self time
   excludes the transform (a child span) and the handler timer (which
   runs inside launches); cupti.ns_per_winstr is the launch self time
   of the CUPTI ops over their warp-instructions. *)
let in_process_layers ~traced ~spans ~handler_s ~handler_calls ~cache_hits
    ~cache_lookups =
  let nops = float (List.length traced) in
  let traced_s = sum (fun s -> s.secs) traced in
  let hspans = List.filter_map to_hspan spans in
  (* The op class each span belongs to, from the op spans on track 0. *)
  let ops =
    List.filter_map
      (fun (sp : Obs.Span.t) ->
         match (to_hspan sp, List.assoc_opt "class" sp.Obs.Span.sp_attrs) with
         | Some h, Some (Obs.Span.Str c) when sp.Obs.Span.sp_cat = "bench.op" ->
           Some (h.H.start, h.H.stop, c)
         | _ -> None)
      spans
  in
  let class_at t =
    List.find_map (fun (a, b, c) -> if t >= a && t <= b then Some c else None) ops
  in
  let self = Hashtbl.create 16 in
  List.iter
    (fun (sp, t) ->
       let k = (sp.H.key, class_at sp.H.start) in
       Hashtbl.replace self k
         (t +. Option.value ~default:0.0 (Hashtbl.find_opt self k)))
    (H.self_times hspans);
  let self_in ?cls key =
    Hashtbl.fold
      (fun (k, c) t acc ->
         if k = key && (cls = None || c = cls) then acc +. t else acc)
      self 0.0
  in
  let stats_sum l =
    sum_counters
      (List.filter_map (fun s -> Option.map Gpu.Stats.to_assoc s.stats) l)
  in
  let counters = stats_sum traced in
  let c k = float (Option.value ~default:0 (List.assoc_opt k counters)) in
  let winstr = c "warp_instrs" in
  let app = float (isum (fun s -> s.app) traced) in
  let cupti_ops = List.filter (fun s -> s.records > 0) traced in
  let cupti_winstr =
    float (isum winstr_of cupti_ops)
  in
  let launch_self = self_in "launch" -. handler_s in
  let nlaunch = count_spans spans is_launch in
  let ncompile =
    count_spans spans is_compile
  in
  [ ("gpu.launch_s", launch_self /. nops);
    ("gpu.ns_per_winstr", div launch_self winstr *. 1e9);
    ("gpu.us_per_launch", div launch_self nlaunch *. 1e6);
    ("gpu.launches_per_op", nlaunch /. nops);
    ("gpu.device_create_s", self_in "gpu.create" /. nops) ]
  @ modelled ~nops counters
  @ [ ("sassi.inject_s",
       (self_in "sassi.attach" +. self_in "sassi.inject") /. nops);
      ("sassi.hcalls_per_op", c "hcalls" /. nops);
      ("sassi.handler_s", handler_s /. nops);
      ("sassi.handler_ns_per_call", div handler_s (float handler_calls) *. 1e9);
      ("sassi.injected_winstr_ratio", div (winstr -. app) app);
      ("cupti.records_per_op", float (isum (fun s -> s.records) traced) /. nops);
      ("cupti.pc_samples_per_op",
       float (isum (fun s -> s.pc_samples) traced) /. nops);
      ("cupti.ns_per_winstr",
       div (self_in ~cls:"cupti" "launch") cupti_winstr *. 1e9);
      ("prof.report_s", (self_in "prof.report" +. self_in "cupti.enable") /. nops);
      ("kernel.compile_s", self_in "compile" /. nops);
      ("kernel.compiles_per_op", ncompile /. nops);
      ("kernel.cache_hit_ratio", div cache_hits cache_lookups);
      ("workloads.driver_s", self_in "workloads.run" /. nops);
      ("trace.unattributed_share", div (self_in "bench.op") traced_s) ]

(* Per-layer metrics of serve-campaign. Jobs run inside the daemon, so
   device creation, the transform and the handler trap are not
   observable from outside (left out, so reported as 0); the pool, cache and HTTP
   numbers come from /metrics, the job stages from the daemon's job
   table, and compile/launch/job time from the program's own spans on
   the pool workers' tracks. *)
let serve_layers ~traced ~spans ~before ~after =
  let nops = float (List.length traced) in
  let traced_s = sum (fun s -> s.secs) traced in
  let served = List.filter_map (fun s -> s.served) traced in
  let mean f = div (sum f served) (float (List.length served)) in
  let open Serve_client in
  let delta k =
    Option.value ~default:0.0 (List.assoc_opt k after)
    -. Option.value ~default:0.0 (List.assoc_opt k before)
  in
  let worker = List.filter (fun sp -> sp.Obs.Span.sp_track > 0) spans in
  let self = H.self_by_key (List.filter_map to_hspan worker) in
  let counters = sum_counters (List.map (fun s -> s.s_counters) served) in
  let c k = float (Option.value ~default:0 (List.assoc_opt k counters)) in
  let winstr = c "warp_instrs" in
  (* The manifest's merged stats cover the Run job and the injection
     runs, not the Inject job's golden and profiling runs. *)
  let manifest_app =
    sum
      (fun s ->
         let k = campaign_kinds.(s.kind) in
         float s.app *. float (1 + k.injections)
         /. float (Serve_client.runs_per_campaign k))
      traced
  in
  let nlaunch = count_spans worker is_launch in
  let ncompile =
    count_spans worker is_compile
  in
  let hits = delta "sassi_cache_hits_total" in
  [ ("gpu.launch_s", self "launch" /. nops);
    ("gpu.ns_per_winstr", div (self "launch") winstr *. 1e9);
    ("gpu.us_per_launch", div (self "launch") nlaunch *. 1e6);
    ("gpu.launches_per_op", nlaunch /. nops) ]
  @ modelled ~nops counters
  @ [ ("sassi.hcalls_per_op", c "hcalls" /. nops);
      ("sassi.injected_winstr_ratio", div (winstr -. manifest_app) manifest_app);
      ("kernel.compile_s", self "compile" /. nops);
      ("kernel.compiles_per_op", ncompile /. nops);
      ("kernel.cache_hit_ratio",
       div hits (hits +. delta "sassi_cache_misses_total"));
      ("workloads.driver_s", self "job" /. nops);
      ("par.tasks_per_op", delta "sassi_pool_tasks_total" /. nops);
      ("par.steals_per_op", delta "sassi_pool_steals_total" /. nops);
      ("par.idle_wakes_per_op", delta "sassi_pool_idle_wakes_total" /. nops);
      ("runner.job_s", total_dur worker "job" /. nops);
      ("runner.reduce_s", total_dur spans "reduce" /. nops);
      ("serve.post_s", mean (fun s -> s.s_posted -. s.s_sent));
      ("serve.queue_wait_s", mean (fun s -> s.s_started -. s.s_submitted));
      ("serve.exec_s", mean (fun s -> s.s_finished -. s.s_started));
      ("serve.completion_lag_s", mean (fun s -> s.s_seen -. s.s_finished));
      ("serve.manifest_get_s", mean (fun s -> s.s_done -. s.s_seen));
      ("serve.http_s",
       div (delta "sassi_serve_request_duration_us_sum")
         (delta "sassi_serve_request_duration_us_count")
       /. 1e6);
      (* Op time in no request and no job execution: queueing outside
         the POST, completion lag and gaps. *)
      ("trace.unattributed_share",
       div
         (sum
            (fun s ->
               s.s_done -. s.s_sent
               -. H.covered ~lo:s.s_sent ~hi:s.s_done
                    [ (s.s_sent, s.s_posted); (s.s_started, s.s_finished);
                      (s.s_seen, s.s_done) ])
            served)
         traced_s) ]

(* --- Child process ------------------------------------------------------ *)

let vm_hwm_mb () =
  try
    let ic = open_in "/proc/self/status" in
    Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
    let rec go () =
      let l = input_line ic in
      if String.starts_with ~prefix:"VmHWM:" l then
        Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
            float kb /. 1024.0)
      else go ()
    in
    go ()
  with _ -> 0.0

let child ~role ~workload ~seed ~seconds ~trace =
  Gpu.Device.set_default_domains 1;
  let golden =
    match G.load golden_path with
    | Ok g -> g
    | Error e ->
      prerr_endline ("perfbench: " ^ e);
      exit 2
  in
  let bench = make_bench golden workload in
  let warm = List.map bench.b_run bench.b_warmup in
  print_endline ready_line;
  if role = "setup" then begin
    bench.b_finish ();
    List.iter prerr_endline (List.rev !errors);
    exit (if List.for_all (fun s -> s.ok) warm then 0 else 1)
  end;
  let gc0 = Gc.quick_stat () in
  (* The traced run reports no end-to-end metric, so it needs no
     minimum op count for the tail. *)
  let untraced, rounds =
    if trace then run_phase bench ~seed (seconds /. 2.0)
    else run_phase bench ~seed ~min_ops:min_timed_ops seconds
  in
  let gc1 = Gc.quick_stat () in
  let metrics, traced =
    if not trace then begin
      bench.b_finish ();
      (end_to_end ~peak_rss_mb:(vm_hwm_mb ()) untraced, [])
    end
    else begin
      let scrape () =
        match bench.b_port with
        | None -> []
        | Some port ->
          (match Serve_client.scrape ~port ~deadline:(now () +. 10.0) with
           | Ok l -> l
           | Error e ->
             errors := e :: !errors;
             [])
      in
      let before = scrape () in
      let cache0 = Kernel.Cache.stats () in
      Ops.hooks_on := true;
      Obs.Tracer.enable ();
      let traced, _ = run_phase bench ~seed ~rounds seconds in
      Ops.hooks_on := false;
      let after = scrape () in
      bench.b_finish ();
      let spans = Obs.Tracer.drain () in
      let cache1 = Kernel.Cache.stats () in
      let layers =
        match bench.b_port with
        | Some _ -> serve_layers ~traced ~spans ~before ~after
        | None ->
          let d f = float (f cache1 - f cache0) in
          let hits = d (fun c -> c.Kernel.Cache.c_hits) in
          in_process_layers ~traced ~spans ~handler_s:!Ops.handler_s
            ~handler_calls:!Ops.handler_calls ~cache_hits:hits
            ~cache_lookups:(hits +. d (fun c -> c.Kernel.Cache.c_misses))
      in
      (* Simulated warp-instructions of the untraced phase: the ops'
         device stats in process, the manifests' merged stats when
         served. *)
      let winstr =
        isum
          (fun s ->
             match s.served with
             | Some sv ->
               Option.value ~default:0
                 (List.assoc_opt "warp_instrs" sv.Serve_client.s_counters)
             | None -> winstr_of s)
          untraced
      in
      let common =
        gc_layers ~ops:(float (List.length untraced)) ~winstr:(float winstr)
          gc0 gc1
        @ [ ("trace.overhead_ratio",
             div (sum (fun s -> s.secs) traced) (sum (fun s -> s.secs) untraced)) ]
      in
      (* A layer the workload does not use reads 0. *)
      ( List.map
          (fun (x : C.metric) ->
             ( x.C.name,
               Option.value ~default:0.0
                 (List.assoc_opt x.C.name (layers @ common)) ))
          C.per_layer,
        traced )
    end
  in
  let all = warm @ untraced @ traced in
  let attempted = List.length all in
  let nfailed = List.length (List.filter (fun s -> not s.ok) all) in
  let _, tail_name, tail_beyond = tail_of untraced in
  let meta =
    [ ("timed_ops", J.Int (List.length untraced));
      ("rounds", J.Int rounds);
      ("warmup_ops", J.Int (List.length warm));
      ("op_kinds", J.Int (Array.length bench.b_ids));
      ("op_tail_percentile", J.Str tail_name);
      ("op_tail_ops_beyond", J.Int tail_beyond);
      ("measured_s", json_float (sum (fun s -> s.secs) untraced));
      ("op_kind_p50_s", J.Obj (kind_medians bench untraced));
      ("traced_ops", J.Int (List.length traced)) ]
  in
  print_endline
    (J.to_string
       (J.Obj
          [ ("attempted", J.Int attempted);
            ("failed", J.Int nfailed);
            ("errors", J.List (List.map (fun e -> J.Str e) (List.rev !errors)));
            ("meta", J.Obj meta);
            ("metrics",
             J.Obj (List.map (fun (k, v) -> (k, json_float v)) metrics)) ]));
  exit 0

(* --- Parent process ----------------------------------------------------- *)

type child_out = {
  ready_s : float option;  (** process start -> ready line *)
  status : Unix.process_status option;  (** [None]: killed at the deadline *)
  last_line : string;
}

(* Start this executable as a child, timing from just before the
   process is created until it prints the ready line. *)
let spawn ~deadline args =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let t0 = now () in
  let pid =
    Unix.create_process Sys.executable_name
      (Array.of_list (Sys.executable_name :: args))
      Unix.stdin wr Unix.stderr
  in
  Unix.close wr;
  let buf = Buffer.create 1024 in
  let chunk = Bytes.create 4096 in
  let ready = ref None in
  let rec pump () =
    let left = deadline -. now () in
    if left <= 0.0 then false
    else
      match Unix.select [ rd ] [] [] left with
      | [], _, _ -> false
      | _ ->
        let n = Unix.read rd chunk 0 (Bytes.length chunk) in
        if n = 0 then true
        else begin
          Buffer.add_subbytes buf chunk 0 n;
          if !ready = None then begin
            let s = Buffer.contents buf in
            let r = ready_line ^ "\n" in
            if String.length s >= String.length r
               && String.sub s 0 (String.length r) = r
            then ready := Some (now () -. t0)
          end;
          pump ()
        end
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> pump ()
  in
  let ended = pump () in
  Unix.close rd;
  if not ended then (try Unix.kill pid Sys.sigkill with _ -> ());
  let _, st = Unix.waitpid [] pid in
  let lines =
    String.split_on_char '\n' (Buffer.contents buf)
    |> List.filter (fun l -> String.trim l <> "")
  in
  { ready_s = !ready;
    status = (if ended then Some st else None);
    last_line = (match List.rev lines with l :: _ -> l | [] -> "") }

let nproc () = Domain.recommended_domain_count ()

(* Every digit of a measured value; JSON has no NaN or infinity. *)
let fmt_float f =
  if not (Float.is_finite f) then "0"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

let result_line ~correct ~attempted ~failed metrics =
  let m =
    List.map
      (fun (name, unit, v) ->
         Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}"
           (J.to_string (J.Str name)) (fmt_float v) (J.to_string (J.Str unit)))
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " m)

let parent_one ~workload ~seed ~seconds ~trace =
  let t_start = now () in
  let deadline = t_start +. run_budget_s in
  let args role =
    [ "--role"; role; "--workload"; workload; "--seed"; string_of_int seed;
      "--seconds"; Printf.sprintf "%g" seconds; "--trace";
      (if trace then "1" else "0") ]
  in
  let problems = ref [] in
  let setup =
    if trace then []
    else
      List.init (setup_samples - 1) (fun _ ->
          let c = spawn ~deadline (args "setup") in
          (match c.status with
           | Some (Unix.WEXITED 0) -> ()
           | _ -> problems := "a set-up process failed" :: !problems);
          c.ready_s)
  in
  let main = spawn ~deadline (args "main") in
  (match main.status with
   | Some (Unix.WEXITED 0) -> ()
   | Some _ -> problems := "the measured process failed" :: !problems
   | None -> problems := "the measured process ran out of time" :: !problems);
  let doc =
    match J.of_string main.last_line with
    | Ok d -> d
    | Error _ -> J.Obj []
  in
  let int k = match J.member k doc with Some (J.Int i) -> i | _ -> 0 in
  let metrics =
    match J.member "metrics" doc with
    | Some (J.Obj l) ->
      List.filter_map
        (fun (k, v) ->
           match v with
           | J.Float f -> Some (k, f)
           | J.Int i -> Some (k, float i)
           | _ -> None)
        l
    | _ -> []
  in
  let setup_all = List.filter_map Fun.id (main.ready_s :: setup) in
  let setup_s =
    if setup_all = [] then 0.0 else H.median (H.sorted_of_list setup_all)
  in
  let expected = if trace then C.per_layer else C.end_to_end in
  let metrics =
    List.filter_map
      (fun (x : C.metric) ->
         Option.map (fun v -> (x, v))
           (if x.C.name = "setup_s" then Some setup_s
            else List.assoc_opt x.C.name metrics))
      expected
  in
  if List.compare_lengths metrics expected <> 0 then
    problems := "metrics missing from the result" :: !problems;
  (match J.member "errors" doc with
   | Some (J.List l) ->
     List.iteri
       (fun i e ->
          match e with
          | J.Str s when i < 10 -> prerr_endline ("perfbench: " ^ s)
          | _ -> ())
       l
   | _ -> ());
  List.iter (fun p -> prerr_endline ("perfbench: " ^ p)) !problems;
  let attempted = int "attempted" in
  let failed = int "failed" in
  let correct = !problems = [] && failed = 0 && attempted > 0 in
  (* Run metadata, then the metrics by name, then the result. *)
  let meta =
    [ ("workload", J.Str workload);
      ("seed", J.Int seed);
      ("seconds", J.Float seconds);
      ("trace", J.Bool trace);
      ("nproc", J.Int (nproc ()));
      ("ocaml_version", J.Str Sys.ocaml_version);
      ("ocamlrunparam",
       J.Str (Option.value ~default:"" (Sys.getenv_opt "OCAMLRUNPARAM")));
      ("device_domains", J.Int 1);
      ("daemon_pool_width",
       if workload = "serve-campaign" then
         J.Int Serve.Daemon.default_config.Serve.Daemon.cfg_pool_jobs
       else J.Null);
      ("setup_samples_s", J.List (List.map (fun s -> J.Float s) setup_all)) ]
    @ (match J.member "meta" doc with Some (J.Obj l) -> l | _ -> [])
  in
  print_endline ("perfbench meta " ^ J.to_string (J.Obj meta));
  List.iter
    (fun ((x : C.metric), v) ->
       Printf.printf "%-15s %-28s %-22s %-12s %s\n" workload x.C.name
         (fmt_float v) x.C.unit
         (if trace then "moves " ^ x.C.moves
          else C.better_to_string x.C.better ^ " is better"))
    metrics;
  print_endline
    (result_line ~correct ~attempted ~failed
       (List.map (fun ((x : C.metric), v) -> (x.C.name, x.C.unit, v)) metrics));
  correct

(* --- Golden regeneration ------------------------------------------------ *)

let regen path =
  Gpu.Device.set_default_domains 1;
  let plain_inputs =
    List.sort_uniq compare
      (List.map Ops.input_of (sim_mix @ profile_mix) @ [ Serve_client.input ])
  in
  let kinds = List.map (fun i -> Ops.Plain i) plain_inputs @ uniq profile_mix in
  (* Every op twice: an entry that differs between two runs of the
     same code would make the table useless. *)
  let once () = List.map (fun k -> (Ops.id k, (Ops.run k).Ops.fields)) kinds in
  let a = once () and b = once () in
  if a <> b then failwith "regen: two runs of the same ops disagree";
  let field id k = Option.bind (List.assoc_opt id a) (List.assoc_opt k) in
  List.iter
    (fun kind ->
       let plain = "run:" ^ Ops.input_id (Ops.input_of kind) in
       let same k = field (Ops.id kind) k = field plain k in
       if not (same "output_digest") then
         failwith ("regen: " ^ Ops.id kind ^ " changed the workload's output");
       match kind with
       | Ops.Cupti_all _ when not (same "stats_digest") ->
         failwith ("regen: " ^ Ops.id kind ^ " changed the simulated stats")
       | _ -> ())
    profile_mix;
  let d =
    Serve.Daemon.create
      { Serve.Daemon.default_config with
        Serve.Daemon.cfg_port = 0;
        cfg_access_log = None }
  in
  let th = Serve.Daemon.start d in
  let port = Serve.Daemon.port d in
  let served () =
    List.map
      (fun kind ->
         match Serve_client.op d ~port ~deadline:(now () +. 120.0) kind with
         | Ok s -> (Serve_client.id kind, s.Serve_client.s_fields)
         | Error e -> failwith ("regen: " ^ e))
      (Array.to_list campaign_kinds)
  in
  let c1 = served () in
  let c2 = served () in
  stop_daemon d th;
  if c1 <> c2 then failwith "regen: two runs of the same campaigns disagree";
  let oc = open_out path in
  output_string oc (G.to_string (a @ c1));
  close_out oc;
  Printf.printf "wrote %d golden entries to %s\n"
    (List.length a + List.length c1) path

(* --- Command line ------------------------------------------------------- *)

let usage =
  "usage: perfbench --workload sim-plain|profile-tools|serve-campaign|all \
   --seed N --seconds S --trace 0|1\n       perfbench --regen-golden PATH"

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | k :: v :: rest when String.starts_with ~prefix:"--" k ->
      parse ((k, v) :: acc) rest
    | [] -> Some acc
    | _ -> None
  in
  let bad msg =
    prerr_endline ("perfbench: " ^ msg);
    prerr_endline usage;
    exit 2
  in
  match parse [] args with
  | None -> bad "malformed arguments"
  | Some kv ->
    let get k = List.assoc_opt k kv in
    (match get "--regen-golden" with
     | Some path -> regen path; exit 0
     | None -> ());
    let num k conv =
      match Option.bind (get k) conv with
      | Some v -> v
      | None -> bad ("missing or malformed " ^ k)
    in
    let workload = Option.value ~default:"" (get "--workload") in
    let seed = num "--seed" int_of_string_opt in
    let seconds = num "--seconds" float_of_string_opt in
    let trace =
      match get "--trace" with
      | Some "0" -> false
      | Some "1" -> true
      | _ -> bad "--trace must be 0 or 1"
    in
    if seconds <= 0.0 || seconds > 120.0 then bad "--seconds must be in (0, 120]";
    if not (List.mem workload ("all" :: workload_names)) then
      bad ("unknown workload " ^ workload);
    if not (Sys.file_exists golden_path) then
      bad ("no golden table at " ^ golden_path ^ "; run from the repository root");
    match get "--role" with
    | Some role -> child ~role ~workload ~seed ~seconds ~trace
    | None ->
      let targets = if workload = "all" then workload_names else [ workload ] in
      let ok =
        List.fold_left
          (fun ok w -> parent_one ~workload:w ~seed ~seconds ~trace && ok)
          true targets
      in
      exit (if ok then 0 else 1)
