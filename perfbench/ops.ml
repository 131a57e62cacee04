(* The op kinds the benchmark's in-process workloads run, each a
   closed sequence of calls into the program's public API, plus the
   benchmark-owned spans and timers the traced run records around
   them. Serve ops live in Serve_client. *)

module J = Trace.Json

type input = {
  workload : string;  (** registry name *)
  variant : string;
}

type tool =
  | Branch  (** Case Study I: branch divergence *)
  | Memdiv  (** Case Study II: memory divergence *)
  | Value  (** Case Study III: value profiling *)
  | Errprof  (** Case Study IV: the error-injection profiling pass *)

type kind =
  | Plain of input  (** uninstrumented run on a fresh device *)
  | Sassi_tool of tool * input
  | Cupti_all of input
      (** activity tracing + PC sampling + telemetry, then the
          report/export calls *)

let input_id i = i.workload ^ "@" ^ i.variant

let tool_name = function
  | Branch -> "branch"
  | Memdiv -> "memdiv"
  | Value -> "value"
  | Errprof -> "errprof"

(* The golden-table key of an op kind. *)
let id = function
  | Plain i -> "run:" ^ input_id i
  | Sassi_tool (t, i) -> tool_name t ^ ":" ^ input_id i
  | Cupti_all i -> "cupti:" ^ input_id i

let input_of = function
  | Plain i | Sassi_tool (_, i) | Cupti_all i -> i

(* What one op observed. [fields] is checked against the golden
   table; the rest feeds the per-layer metrics. *)
type outcome = {
  fields : Perfbench.Golden.entry;
  stats : Gpu.Stats.t;  (** simulated, injected instructions included *)
  records : int;  (** CUPTI activity records delivered *)
  pc_samples : int;
}

(* --- Traced-run hooks --------------------------------------------------- *)

(* In the traced run the device's transform is wrapped in a span (it
   runs inside the launch span, once per kernel) and its HCALL trap in
   an accumulating timer (it runs once per handler call, too often for
   a span each). Off in untraced runs, which pay nothing for them. *)
let hooks_on = ref false

let handler_s = ref 0.0

let handler_calls = ref 0

let wrap_hooks (device : Gpu.Device.t) =
  if !hooks_on then begin
    (match device.Gpu.State.d_transform with
     | Some tr ->
       device.Gpu.State.d_transform <-
         Some
           (fun k ->
              Obs.Tracer.with_span ~cat:"sassi.inject" "transform" (fun () ->
                  tr k))
     | None -> ());
    match device.Gpu.State.d_hcall with
    | Some h ->
      device.Gpu.State.d_hcall <-
        Some
          (fun ctx ->
             let t0 = Obs.Clock.now_s () in
             Fun.protect
               ~finally:(fun () ->
                   handler_s := !handler_s +. (Obs.Clock.now_s () -. t0);
                   incr handler_calls)
               (fun () -> h ctx))
    | None -> ()
  end

(* --- Running an op ------------------------------------------------------ *)

let span = Obs.Tracer.with_span

let fresh () =
  span ~cat:"gpu.create" "Device.create" (fun () -> Gpu.Device.create ())

let run_workload device (i : input) =
  let w = Workloads.Registry.find i.workload in
  span ~cat:"workloads.run" ("run:" ^ i.workload) (fun () ->
      w.Workloads.Workload.run device ~variant:i.variant)

let result_fields (r : Workloads.Workload.result) =
  Perfbench.Golden.run_fields ~output_digest:r.Workloads.Workload.output_digest
    ~stdout:r.Workloads.Workload.stdout ~stats:r.Workloads.Workload.stats
    ~launches:r.Workloads.Workload.launches

let outcome ?(records = 0) ?(pc_samples = 0) extra
    (r : Workloads.Workload.result) =
  { fields = result_fields r @ extra;
    stats = r.Workloads.Workload.stats;
    records;
    pc_samples }

let digest_strings l = Digest.to_hex (Digest.string (String.concat "\n" l))

(* Run [i] under [pairs], returning the result and a rendering of the
   tool's findings to check against the golden table. *)
let with_tool device i pairs summary =
  let r =
    span ~cat:"sassi.attach" "with_instrumentation" (fun () ->
        Sassi.Runtime.with_instrumentation device pairs (fun _ ->
            wrap_hooks device;
            run_workload device i))
  in
  (r, summary ())

let sassi_op tool i =
  let device = fresh () in
  let r, summary =
    match tool with
    | Branch ->
      let h = Handlers.Branch_stats.create device in
      with_tool device i (Handlers.Branch_stats.pairs h) (fun () ->
          let s = Handlers.Branch_stats.summary h in
          Printf.sprintf "static=%d/%d dynamic=%d/%d"
            s.Handlers.Branch_stats.static_divergent
            s.Handlers.Branch_stats.static_branches
            s.Handlers.Branch_stats.dynamic_divergent
            s.Handlers.Branch_stats.dynamic_branches)
    | Memdiv ->
      let h = Handlers.Mem_divergence.create device in
      with_tool device i (Handlers.Mem_divergence.pairs h) (fun () ->
          Handlers.Mem_divergence.matrix h
          |> Array.to_list
          |> List.map (fun row ->
              String.concat "," (List.map string_of_int (Array.to_list row)))
          |> digest_strings)
    | Value ->
      let h = Handlers.Value_profile.create device in
      with_tool device i (Handlers.Value_profile.pairs h) (fun () ->
          let s = Handlers.Value_profile.summary h in
          Printf.sprintf "%h %h %h %h"
            s.Handlers.Value_profile.dynamic_const_bits_pct
            s.Handlers.Value_profile.dynamic_scalar_pct
            s.Handlers.Value_profile.static_const_bits_pct
            s.Handlers.Value_profile.static_scalar_pct)
    | Errprof ->
      let h = Handlers.Error_inject.Profile.create () in
      with_tool device i (Handlers.Error_inject.Profile.pairs h) (fun () ->
          string_of_int (Handlers.Error_inject.Profile.total_dynamic_instrs h))
  in
  outcome [ ("summary", J.Str summary) ] r

let cupti_op i =
  let device = fresh () in
  let sampling, tele =
    span ~cat:"cupti.enable" "enable" (fun () ->
        Cupti.Activity.enable_all device;
        let s = Cupti.Pc_sampling.enable device in
        (s, Cupti.Telemetry.enable device))
  in
  let r = run_workload device i in
  let records, reports =
    span ~cat:"prof.report" "report" (fun () ->
        let records = Cupti.Activity.flush device in
        let timeline =
          Format.asprintf "%a" Trace.Timeline.pp_summary
            (Trace.Timeline.build records)
        in
        Cupti.Pc_sampling.disable device;
        let report =
          Cupti.Pc_sampling.report ~stats:r.Workloads.Workload.stats device
            sampling
        in
        Cupti.Telemetry.disable device;
        ( records,
          [ timeline; Prof.Report.to_json_string report;
            Telemetry.Export.prometheus (Cupti.Telemetry.registry tele) ] ))
  in
  let dropped = Cupti.Activity.dropped device in
  Cupti.Activity.disable device;
  let nrec = List.length records in
  let samples = Prof.Pc_sampling.total_samples sampling in
  outcome ~records:nrec ~pc_samples:samples
    [ ("records", J.Int nrec);
      ("dropped", J.Int dropped);
      ("pc_samples", J.Int samples);
      ("reports_digest", J.Str (digest_strings reports)) ]
    r

let run = function
  | Plain i ->
    let device = fresh () in
    outcome [] (run_workload device i)
  | Sassi_tool (t, i) -> sassi_op t i
  | Cupti_all i -> cupti_op i
