type wstatus =
  | W_ready
  | W_barrier
  | W_done

type stack_entry = {
  mutable e_pc : int;
  e_rpc : int;
  mutable e_mask : int;
}

type warp = {
  w_id : int;
  w_block : block;
  w_regs : int array;
  w_preds : int array;
  w_local : Memory.t;
  mutable w_stack : stack_entry list;
  mutable w_call_stack : int list;
  mutable w_status : wstatus;
  mutable w_ready_at : int;
  mutable w_stall_code : int;
  mutable w_sassi_scratch : int;
}

and block = {
  b_x : int;
  b_y : int;
  b_flat : int;
  b_shared : Memory.t;
  b_launch : launch;
  mutable b_warps : warp array;
  mutable b_arrived : int;
  mutable b_alive : int;
}

and sm = {
  sm_id : int;
  sm_launch : launch;
  mutable sm_cycle : int;
  mutable sm_issued : int;
  mutable sm_warps : warp array;
  mutable sm_rr : int;
  sm_addrs : int array;
  (* Per-SM observation context. In sequential mode these alias the
     launch/device-level objects; under device sharding each SM gets
     private instances, merged back in [sm_id] order at launch end so
     stats and sink contents are bit-identical to the sequential
     path. The interpreter and scheduler only ever go through these,
     never through [l_stats]/[d_tracer]/[d_telemetry]/[d_sampler]
     directly. *)
  sm_stats : Stats.t;
  sm_tracer : Trace.Collector.t option;
  sm_telemetry : telemetry option;
  sm_sampler : sampler option;
}

and launch = {
  l_device : device;
  l_kernel : Sass.Program.kernel;
  l_code : Decoded.t;
  l_grid_x : int;
  l_grid_y : int;
  l_block_x : int;
  l_block_y : int;
  l_params : Memory.t;
  l_stats : Stats.t;
  l_id : int;
  l_invocation : int;
}

and device = {
  d_cfg : Config.t;
  d_global : Memory.t;
  d_mem : Memsys.t;
  mutable d_alloc : int;
  mutable d_transform : transform option;
  mutable d_transform_gen : int;
  d_kernel_cache : (string * int, Sass.Program.kernel) Hashtbl.t;
  d_decoded : (string, Decoded.t) Hashtbl.t;
  mutable d_launch_cbs : (int * (launch -> unit)) list;
  mutable d_exit_cbs : (int * (launch -> unit)) list;
  mutable d_cb_next : int;
  mutable d_hcall : (hcall_ctx -> unit) option;
  mutable d_launch_count : int;
  d_invocations : (string, int) Hashtbl.t;
  mutable d_texture : (int * int) option;
  mutable d_host_access : (addr:int -> bytes:int -> write:bool -> unit) option;
  mutable d_tracer : Trace.Collector.t option;
  mutable d_trace_base : int;
  mutable d_sampler : sampler option;
  mutable d_telemetry : telemetry option;
  (* Device sharding: number of domains SM simulation may spread
     over (1 = sequential), and how many launches were forced down
     the sequential path by the eligibility scan (cross-block atomics
     or SASSI handlers). The fallback counter moves on every launch
     regardless of [d_domains], so telemetry exports stay
     byte-identical across domain counts. *)
  mutable d_domains : int;
  mutable d_sharding_fallbacks : int;
}

and transform = Sass.Program.kernel -> Sass.Program.kernel

and sampler = {
  sp_period : int;
  mutable sp_credit : int;
  sp_hit : sm -> unit;
}

and telemetry = {
  tm_interval : int;
  tm_mem_latency : Telemetry.Hist.t;
  tm_mem_transactions : Telemetry.Hist.t;
  tm_branch_lanes : Telemetry.Hist.t;
  tm_divergent_taken_lanes : Telemetry.Hist.t;
  tm_barrier_wait : Telemetry.Hist.t;
  tm_handler_cycles : Telemetry.Hist.t;
  tm_handler_sites : (int, int ref) Hashtbl.t;
  tm_series : Telemetry.Series.t;
  mutable tm_next_sample : int;
  tm_base : tm_snapshot;
}

and tm_snapshot = {
  mutable ts_cycle : int;
  mutable ts_issued : int;
  mutable ts_l1_hits : int;
  mutable ts_l1_misses : int;
  mutable ts_l2_hits : int;
  mutable ts_l2_misses : int;
}

and hcall_ctx = {
  h_launch : launch;
  h_sm : sm;
  h_warp : warp;
  h_handler : int;
  h_pc : int;
  h_mask : int;
}

let warp_size = 32

let full_mask = 0xFFFFFFFF

(* Register slots of one lane are [Decoded.stride] apart; only the
   [nregs] registers the kernel names are addressable, so an index
   past them raises instead of reaching the next lane. *)
let reg_slot w ~lane i =
  let code = w.w_block.b_launch.l_code in
  if i >= code.Decoded.nregs then
    invalid_arg
      (Printf.sprintf "State: R%d is not a register of kernel %s" i
         code.Decoded.kernel.Sass.Program.name);
  (lane * code.Decoded.stride) + i

let reg_get w ~lane r =
  match r with
  | Sass.Reg.RZ -> 0
  | Sass.Reg.R i -> w.w_regs.(reg_slot w ~lane i)

let reg_set w ~lane r v =
  match r with
  | Sass.Reg.RZ -> ()
  | Sass.Reg.R i -> w.w_regs.(reg_slot w ~lane i) <- v land Value.mask

let pred_get w ~lane p = (w.w_preds.(Sass.Pred.index p) lsr lane) land 1 = 1

let pred_set w ~lane p v =
  match p with
  | Sass.Pred.PT -> ()
  | Sass.Pred.P i ->
    let m = w.w_preds.(i) in
    w.w_preds.(i) <- (if v then m lor (1 lsl lane) else m land lnot (1 lsl lane))

let tos w =
  match w.w_stack with
  | [] -> invalid_arg "State.tos: warp has exited"
  | e :: _ -> e

let active_mask w =
  match w.w_stack with
  | [] -> 0
  | e :: _ -> e.e_mask

let lanes_of_mask mask =
  let rec go i acc =
    if i < 0 then acc
    else go (i - 1) (if mask land (1 lsl i) <> 0 then i :: acc else acc)
  in
  go 31 []

let active_lanes w = lanes_of_mask (active_mask w)

let popc_mask m = Value.popc m

let lane_linear_tid w lane = (w.w_id * warp_size) + lane

(* Launch-unique warp id: warps of concurrently resident blocks would
   otherwise collide on [w_id] in activity records. *)
let warp_uid w =
  let l = w.w_block.b_launch in
  let wpb = (l.l_block_x * l.l_block_y + warp_size - 1) / warp_size in
  (w.w_block.b_flat * wpb) + w.w_id

let lane_in_block w lane =
  let bl = w.w_block.b_launch in
  lane_linear_tid w lane < bl.l_block_x * bl.l_block_y

let initial_mask ~block_threads ~warp_id =
  let base = warp_id * warp_size in
  let live = min warp_size (max 0 (block_threads - base)) in
  if live >= 32 then full_mask else (1 lsl live) - 1

let tid_x w ~lane =
  let l = w.w_block.b_launch in
  lane_linear_tid w lane mod l.l_block_x

let tid_y w ~lane =
  let l = w.w_block.b_launch in
  lane_linear_tid w lane / l.l_block_x

let global_tid w ~lane =
  let l = w.w_block.b_launch in
  let threads_per_block = l.l_block_x * l.l_block_y in
  (w.w_block.b_flat * threads_per_block) + lane_linear_tid w lane

let local_read w ~lane ~addr =
  let frame = w.w_block.b_launch.l_kernel.Sass.Program.frame_bytes in
  Memory.read w.w_local ~width:Sass.Opcode.W32 ((lane * frame) + addr)

let local_write w ~lane ~addr v =
  let frame = w.w_block.b_launch.l_kernel.Sass.Program.frame_bytes in
  Memory.write w.w_local ~width:Sass.Opcode.W32 ((lane * frame) + addr) v
