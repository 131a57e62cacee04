(* Per-SM observation slot: trace/telemetry context and sinks, plus
   the shared-memory bank-conflict scratch. Keeping all of it per-SM
   (instead of ambient on [t]) is what lets SMs run on separate
   domains without clobbering each other's stamps, and what makes the
   hot shared-access path allocation-free. *)
type slot = {
  mutable sl_sink : Trace.Collector.t option;
  mutable sl_cycle : int;
  mutable sl_warp : int;
  mutable sl_tm : tm_sink option;
  (* shared_access scratch: unique words seen this call (a warp has at
     most 32 lanes) and per-bank unique-word counts. Both are reset by
     replaying the unique-word list, so no 32-wide clear is needed
     between calls and nothing is allocated. *)
  sa_words : int array;
  sa_bank_count : int array;
  (* global_access scratch: the sorted unique lines of one warp
     access. *)
  sl_lines : int array;
}

and tm_sink = {
  tm_latency : Telemetry.Hist.t;
  tm_transactions : Telemetry.Hist.t;
}

type t = {
  cfg : Config.t;
  l1s : Cache.t array;
  (* Partitioned L2: the capacity is split into [num_sms] equal
     slices and SM [i] only ever probes slice [i]. Applied in both
     sequential and sharded modes so the two are bit-identical (see
     DESIGN: the old shared-L2 sequential semantics, where SM0 fully
     warms the cache before SM1 starts, was an artifact of the
     sequential loop, not fidelity). *)
  l2s : Cache.t array;
  slots : slot array;
  (* Device-level default sinks, mirrored into every slot; the
     scheduler overrides slots with per-SM sinks while sharding and
     restores these afterwards. *)
  mutable tr_sink : Trace.Collector.t option;
  mutable tm_sink : tm_sink option;
}

type result = {
  transactions : int;
  latency : int;
}

let global_window = 0

let local_window = 1 lsl 40

let texture_window = 1 lsl 41

(* Most lines one access of [width] bytes can touch. *)
let max_lines ~line_bytes width = ((width - 1) / line_bytes) + 2

let create (cfg : Config.t) =
  let num_sms = cfg.Config.num_sms in
  { cfg;
    l1s =
      Array.init num_sms (fun i ->
          Cache.create
            ~name:(Printf.sprintf "L1[%d]" i)
            ~size_bytes:cfg.Config.l1_bytes ~assoc:cfg.Config.l1_assoc
            ~line_bytes:cfg.Config.line_bytes);
    l2s =
      Array.init num_sms (fun i ->
          Cache.create
            ~name:(Printf.sprintf "L2[%d]" i)
            ~size_bytes:(cfg.Config.l2_bytes / num_sms)
            ~assoc:cfg.Config.l2_assoc ~line_bytes:cfg.Config.line_bytes);
    slots =
      Array.init num_sms (fun _ ->
          { sl_sink = None;
            sl_cycle = 0;
            sl_warp = -1;
            sl_tm = None;
            sa_words = Array.make 32 0;
            sa_bank_count = Array.make 32 0;
            sl_lines =
              Array.make (32 * max_lines ~line_bytes:cfg.Config.line_bytes 8)
                0 });
    tr_sink = None;
    tm_sink = None }

let set_trace_sink t sink =
  t.tr_sink <- sink;
  Array.iter (fun sl -> sl.sl_sink <- sink) t.slots

let set_telemetry_sink t sink =
  t.tm_sink <- sink;
  Array.iter (fun sl -> sl.sl_tm <- sink) t.slots

let override_slot_sinks t ~sm ~trace ~telemetry =
  let sl = t.slots.(sm) in
  sl.sl_sink <- trace;
  sl.sl_tm <- telemetry

let restore_slot_sinks t =
  Array.iter
    (fun sl ->
      sl.sl_sink <- t.tr_sink;
      sl.sl_tm <- t.tm_sink)
    t.slots

let observe_access t ~sm (r : result) =
  match t.slots.(sm).sl_tm with
  | None -> ()
  | Some tm ->
    Telemetry.Hist.observe tm.tm_latency r.latency;
    Telemetry.Hist.observe tm.tm_transactions r.transactions

let set_trace_ctx t ~sm ~cycle ~warp =
  let sl = t.slots.(sm) in
  sl.sl_cycle <- cycle;
  sl.sl_warp <- warp

let trace_probe t ~sm ~level ~hit =
  let sl = t.slots.(sm) in
  match sl.sl_sink with
  | None -> ()
  | Some c ->
    Trace.Collector.emit c
      (Trace.Record.make ~cycle:sl.sl_cycle ~sm ~warp:sl.sl_warp
         (Trace.Record.Cache_access { level; hit }))

(* Add the lines touched by [width] bytes at [addr] to the first [k]
   entries of [lines], kept sorted and unique; returns the new count.
   A warp contributes at most 32 accesses, and coalesced warps touch
   ascending lines, so scanning back from the end usually stops at
   once and nothing is allocated. *)
let insert_lines ~line_bytes lines k addr width =
  let k = ref k in
  for l = addr / line_bytes to (addr + width - 1) / line_bytes do
    let i = ref (!k - 1) in
    while !i >= 0 && lines.(!i) > l do
      decr i
    done;
    if !i < 0 || lines.(!i) <> l then begin
      Array.blit lines (!i + 1) lines (!i + 2) (!k - !i - 1);
      lines.(!i + 1) <- l;
      incr k
    end
  done;
  !k

let coalesce ~line_bytes pairs =
  let cap =
    List.fold_left (fun c (_, w) -> c + max_lines ~line_bytes w) 0 pairs
  in
  let lines = Array.make cap 0 in
  let k =
    List.fold_left
      (fun k (addr, width) -> insert_lines ~line_bytes lines k addr width)
      0 pairs
  in
  Array.to_list (Array.sub lines 0 k)

let line_latency t ~sm line_addr stats =
  let cfg = t.cfg in
  match Cache.access t.l1s.(sm) line_addr with
  | Cache.Hit ->
    stats.Stats.l1_hits <- stats.Stats.l1_hits + 1;
    trace_probe t ~sm ~level:Trace.Record.L1 ~hit:true;
    cfg.Config.lat_l1
  | Cache.Miss ->
    stats.Stats.l1_misses <- stats.Stats.l1_misses + 1;
    trace_probe t ~sm ~level:Trace.Record.L1 ~hit:false;
    (match Cache.access t.l2s.(sm) line_addr with
     | Cache.Hit ->
       stats.Stats.l2_hits <- stats.Stats.l2_hits + 1;
       trace_probe t ~sm ~level:Trace.Record.L2 ~hit:true;
       cfg.Config.lat_l2
     | Cache.Miss ->
       stats.Stats.l2_misses <- stats.Stats.l2_misses + 1;
       trace_probe t ~sm ~level:Trace.Record.L2 ~hit:false;
       cfg.Config.lat_dram)

let global_access t ~sm ~stats ~width addrs n =
  let cfg = t.cfg in
  let lb = cfg.Config.line_bytes in
  let lines = t.slots.(sm).sl_lines in
  let k = ref 0 in
  for j = 0 to n - 1 do
    k := insert_lines ~line_bytes:lb lines !k addrs.(j) width
  done;
  let k = !k in
  stats.Stats.global_transactions <- stats.Stats.global_transactions + k;
  let worst = ref 0 in
  for j = 0 to k - 1 do
    let lat = line_latency t ~sm (lines.(j) * lb) stats in
    if lat > !worst then worst := lat
  done;
  (* Additional transactions beyond the first serialize at the L1. *)
  let r = { transactions = k; latency = !worst + (max 0 (k - 1)) * 2 } in
  observe_access t ~sm r;
  r

(* Local-memory accesses at a uniform frame offset touch the
   contiguous physical range [first_phys, last_phys + width): the
   per-lane interleaving guarantees perfect coalescing, so the line
   set is computed arithmetically instead of through the generic
   coalescer. This is the hottest path under instrumentation (spill
   and fill traffic of injected call sequences). *)
let contiguous_access t ~sm ~stats ~first_phys ~last_phys ~width =
  let cfg = t.cfg in
  let lb = cfg.Config.line_bytes in
  let first = first_phys / lb in
  let last = (last_phys + width - 1) / lb in
  let n = last - first + 1 in
  stats.Stats.global_transactions <- stats.Stats.global_transactions + n;
  let worst = ref 0 in
  for l = first to last do
    let lat = line_latency t ~sm (l * lb) stats in
    if lat > !worst then worst := lat
  done;
  let r = { transactions = n; latency = !worst + ((n - 1) * 2) } in
  observe_access t ~sm r;
  r

let shared_access t ~sm ~stats addrs n =
  let cfg = t.cfg in
  let sl = t.slots.(sm) in
  (* 32 banks, 4-byte wide; same-word accesses broadcast. The scratch
     arrays live in the per-SM slot, so this path allocates nothing
     and is safe under sharding. Bank counts are left at zero between
     calls (the reset loop below), so no up-front clear is needed. *)
  let n_words = ref 0 in
  for j = 0 to n - 1 do
    let word = addrs.(j) / 4 in
    let seen = ref false in
    for i = 0 to !n_words - 1 do
      if sl.sa_words.(i) = word then seen := true
    done;
    if not !seen then begin
      sl.sa_words.(!n_words) <- word;
      incr n_words;
      let bank = word mod 32 in
      sl.sa_bank_count.(bank) <- sl.sa_bank_count.(bank) + 1
    end
  done;
  let conflict = ref 1 in
  for i = 0 to !n_words - 1 do
    let bank = sl.sa_words.(i) mod 32 in
    if sl.sa_bank_count.(bank) > !conflict then
      conflict := sl.sa_bank_count.(bank);
    sl.sa_bank_count.(bank) <- 0
  done;
  let conflict = !conflict in
  stats.Stats.shared_accesses <- stats.Stats.shared_accesses + 1;
  stats.Stats.shared_conflicts <- stats.Stats.shared_conflicts + (conflict - 1);
  { transactions = conflict;
    latency = cfg.Config.lat_shared * conflict }

let atomic_access t ~sm ~stats ~width addrs n =
  let cfg = t.cfg in
  let base = global_access t ~sm ~stats ~width addrs n in
  let unique_addrs = ref 0 in
  for j = 0 to n - 1 do
    let a = addrs.(j) in
    let i = ref 0 in
    while !i < j && addrs.(!i) <> a do
      incr i
    done;
    if !i = j then incr unique_addrs
  done;
  { transactions = base.transactions;
    latency = base.latency + (cfg.Config.lat_atomic * !unique_addrs) }

let l1_stats t ~sm = (Cache.hits t.l1s.(sm), Cache.misses t.l1s.(sm))

let l2_stats t =
  Array.fold_left
    (fun (h, m) c -> (h + Cache.hits c, m + Cache.misses c))
    (0, 0) t.l2s

let invalidate t =
  Array.iter Cache.invalidate_all t.l1s;
  Array.iter Cache.invalidate_all t.l2s
