(* The serve-campaign client: one closed-loop client, one connection
   at a time, against an in-process Serve.Daemon. Completion is
   observed through the daemon's job table (Serve.Jobs.find) rather
   than by polling GET /jobs/:id, which would both quantize latency
   and load the daemon. *)

module J = Trace.Json

(* --- A minimal HTTP/1.1 client with a deadline -------------------------- *)

type response = {
  status : int;
  body : string;
}

let request ~port ~deadline ~meth ~path ?(body = "") () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with _ -> ()) @@ fun () ->
  try
    let left = deadline -. Obs.Clock.now_s () in
    if left <= 0.0 then Error "deadline passed before the request"
    else begin
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO left;
      Unix.setsockopt_float fd Unix.SO_SNDTIMEO left;
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let req =
        Printf.sprintf
          "%s %s HTTP/1.1\r\nHost: localhost\r\nContent-Length: %d\r\n\
           Connection: close\r\n\r\n%s"
          meth path (String.length body) body
      in
      let b = Bytes.of_string req in
      let rec send off =
        if off < Bytes.length b then
          send (off + Unix.write fd b off (Bytes.length b - off))
      in
      send 0;
      let buf = Buffer.create 4096 in
      let chunk = Bytes.create 65536 in
      let rec recv () =
        let n = Unix.read fd chunk 0 (Bytes.length chunk) in
        if n > 0 then begin
          Buffer.add_subbytes buf chunk 0 n;
          recv ()
        end
      in
      recv ();
      let raw = Buffer.contents buf in
      let head_end =
        let rec find i =
          if i + 3 >= String.length raw then None
          else if String.sub raw i 4 = "\r\n\r\n" then Some (i + 4)
          else find (i + 1)
        in
        find 0
      in
      match (head_end, String.split_on_char ' ' raw) with
      | Some i, _ :: code :: _ ->
        (match int_of_string_opt code with
         | Some status ->
           Ok { status; body = String.sub raw i (String.length raw - i) }
         | None -> Error "malformed status line")
      | _ -> Error "truncated response"
    end
  with Unix.Unix_error (e, fn, _) ->
    Error (Printf.sprintf "%s: %s" fn (Unix.error_message e))

let expect_2xx what = function
  | Ok r when r.status >= 200 && r.status < 300 -> Ok r.body
  | Ok r -> Error (Printf.sprintf "%s: HTTP %d: %s" what r.status r.body)
  | Error e -> Error (what ^ ": " ^ e)

(* --- The campaign job --------------------------------------------------- *)

(* The campaign's workload: small, so per-run costs (device create,
   dataset upload, compile-cache hits, pool dispatch, reduce, HTTP)
   dominate. *)
let input = { Ops.workload = "rodinia/nn"; variant = "default" }

(* One served op kind: the campaign's seed and the Inject job's
   injection count. *)
type kind = {
  seed : int;
  injections : int;
}

(* Device runs per campaign: the Run job, plus the Inject job's
   fault-free golden run, its profiling run and one run per
   injection. Each counts the input's application warp-instructions. *)
let runs_per_campaign k = 1 + 2 + k.injections

let campaign k =
  Par.Campaign.make ~name:"perfbench" ~seed:k.seed
    [ Par.Campaign.job ~variant:input.Ops.variant ~kind:Par.Campaign.Run
        input.Ops.workload;
      Par.Campaign.job ~variant:input.Ops.variant ~kind:Par.Campaign.Inject
        ~injections:k.injections input.Ops.workload ]

let id k = Printf.sprintf "campaign:%d/inj%d" k.seed k.injections

(* Manifest fields checked against the golden table: every counter
   (tally sums, then merged device stats) by digest, the tally and
   the simulated work by value. The [build] block names the host and
   is skipped. *)
let tally_names =
  [ "jobs_total"; "masked"; "crashes"; "hangs"; "failure_symptoms";
    "sdc_stdout"; "sdc_output"; "injections_total"; "warp_instrs" ]

let manifest_fields (m : Telemetry.Manifest.t) =
  let c = m.Telemetry.Manifest.m_counters in
  ( "counters_digest",
    J.Str
      (Ops.digest_strings
         (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) c)) )
  :: ("seed", J.Int m.Telemetry.Manifest.m_seed)
  :: List.map
       (fun k ->
          (k, match List.assoc_opt k c with Some v -> J.Int v | None -> J.Null))
       tally_names

(* One served op, as timestamps: the client's own clock readings and
   the daemon's job-table stamps, both [Unix.gettimeofday]. *)
type served = {
  s_fields : Perfbench.Golden.entry;
  s_counters : (string * int) list;
  s_sent : float;  (** client starts the POST *)
  s_posted : float;  (** POST answered *)
  s_submitted : float;  (** daemon queued the job *)
  s_started : float;  (** daemon started it *)
  s_finished : float;  (** daemon finished it *)
  s_seen : float;  (** client saw it finished *)
  s_done : float;  (** manifest received *)
}

(* One op: POST the campaign, wait for the daemon's job table to show
   it finished, GET its manifest. Any non-2xx answer, failed job,
   unparsable manifest or missed [deadline] is an [Error]. *)
let op daemon ~port ~deadline kind =
  let ( let* ) = Result.bind in
  let t0 = Obs.Clock.now_s () in
  let body = J.to_string (Par.Campaign.to_json (campaign kind)) in
  let* posted =
    expect_2xx "POST /jobs"
      (request ~port ~deadline ~meth:"POST" ~path:"/jobs" ~body ())
  in
  let t1 = Obs.Clock.now_s () in
  let* jid =
    match J.of_string posted with
    | Ok doc ->
      (match J.member "id" doc with
       | Some (J.Str s) -> Ok s
       | _ -> Error "POST /jobs: no id in reply")
    | Error e -> Error ("POST /jobs: " ^ e)
  in
  let jobs = Serve.Daemon.jobs daemon in
  let rec wait () =
    match Serve.Jobs.find jobs jid with
    | Some ({ Serve.Jobs.jb_state = Serve.Jobs.Done; _ } as j) ->
      Ok (j, Obs.Clock.now_s ())
    | Some { Serve.Jobs.jb_state = Serve.Jobs.Failed m; _ } ->
      Error (jid ^ " failed: " ^ m)
    | None -> Error (jid ^ " vanished from the job table")
    | Some _ ->
      if Obs.Clock.now_s () > deadline then Error (jid ^ ": deadline passed")
      else begin
        Thread.delay 0.0005;
        wait ()
      end
  in
  let* j, seen = wait () in
  let* mbody =
    expect_2xx "GET manifest"
      (request ~port ~deadline ~meth:"GET"
         ~path:("/jobs/" ^ jid ^ "/manifest") ())
  in
  let t3 = Obs.Clock.now_s () in
  let* m =
    Result.map_error (fun e -> "manifest: " ^ e)
      (Telemetry.Manifest.of_string mbody)
  in
  let stamp = Option.value ~default:nan in
  Ok
    { s_fields = manifest_fields m;
      s_counters = m.Telemetry.Manifest.m_counters;
      s_sent = t0;
      s_posted = t1;
      s_submitted = j.Serve.Jobs.jb_submitted_s;
      s_started = stamp j.Serve.Jobs.jb_started_s;
      s_finished = stamp j.Serve.Jobs.jb_finished_s;
      s_seen = seen;
      s_done = t3 }

(* --- /metrics scrape ---------------------------------------------------- *)

(* Unlabelled series from a Prometheus exposition, name -> value. *)
let scrape ~port ~deadline =
  match
    expect_2xx "GET /metrics"
      (request ~port ~deadline ~meth:"GET" ~path:"/metrics" ())
  with
  | Error _ as e -> e
  | Ok text ->
    Ok
      (String.split_on_char '\n' text
       |> List.filter_map (fun line ->
           match String.split_on_char ' ' line with
           | [ name; v ] when line <> "" && line.[0] <> '#' ->
             Option.map (fun f -> (name, f)) (float_of_string_opt v)
           | _ -> None))
