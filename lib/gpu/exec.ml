open Sass
open State
module D = Decoded

(* The interpreter runs over {!Decoded} records: every index is
   pre-resolved and checked against the register stride at decode
   time, so the lane loops below use unchecked array accesses, and
   nothing on the path of an ordinary instruction allocates. *)

let special_value sm w ~lane = function
  | Opcode.Sr_tid_x -> tid_x w ~lane
  | Opcode.Sr_tid_y -> tid_y w ~lane
  | Opcode.Sr_ntid_x -> w.w_block.b_launch.l_block_x
  | Opcode.Sr_ntid_y -> w.w_block.b_launch.l_block_y
  | Opcode.Sr_ctaid_x -> w.w_block.b_x
  | Opcode.Sr_ctaid_y -> w.w_block.b_y
  | Opcode.Sr_nctaid_x -> w.w_block.b_launch.l_grid_x
  | Opcode.Sr_nctaid_y -> w.w_block.b_launch.l_grid_y
  | Opcode.Sr_laneid -> lane
  | Opcode.Sr_warpid -> w.w_id
  | Opcode.Sr_smid -> sm.sm_id
  | Opcode.Sr_clock -> sm.sm_cycle land Value.mask

let release_barrier_if_ready blk =
  if blk.b_alive > 0 && blk.b_arrived >= blk.b_alive then begin
    Array.iter
      (fun w -> if w.w_status = W_barrier then w.w_status <- W_ready)
      blk.b_warps;
    blk.b_arrived <- 0
  end

(* Remove exiting lanes from every stack entry; returns true if the
   warp has fully exited. *)
let retire_lanes w exiting =
  w.w_stack <-
    List.filter_map
      (fun e ->
         let m = e.e_mask land lnot exiting in
         if m = 0 then None
         else begin
           e.e_mask <- m;
           Some e
         end)
      w.w_stack;
  w.w_stack = []

let warp_exit w exiting =
  if retire_lanes w exiting then begin
    w.w_status <- W_done;
    let blk = w.w_block in
    blk.b_alive <- blk.b_alive - 1;
    release_barrier_if_ready blk
  end

(* Reconvergence: pop entries whose PC reached their RPC. *)
let rec reconverge w =
  match w.w_stack with
  | e :: rest when e.e_rpc >= 0 && e.e_pc = e.e_rpc ->
    w.w_stack <- rest;
    reconverge w
  | _ -> ()

(* --- Operands ------------------------------------------------------------ *)

(* The lane-invariant value of an operand, read once per instruction. *)
let uniform launch = function
  | D.Imm v -> v
  | D.Param off -> Memory.read launch.l_params ~width:Opcode.W32 off
  | D.Reg _ | D.Zero | D.Pred _ -> 0

(* A lane's value of an operand whose uniform value is [u]. *)
let[@inline] value w ~stride ~lane o u =
  match o with
  | D.Reg r -> Array.unsafe_get w.w_regs ((lane * stride) + r)
  | D.Pred p -> (Array.unsafe_get w.w_preds p lsr lane) land 1
  | D.Imm _ | D.Param _ | D.Zero -> u

let[@inline] set_reg w ~stride ~lane d v =
  Array.unsafe_set w.w_regs ((lane * stride) + d) (v land Value.mask)

(* Predicate [p] takes [bits] in the lanes of [mask]. *)
let[@inline] set_pred_lanes w p ~mask bits =
  w.w_preds.(p) <- w.w_preds.(p) land lnot mask lor (bits land mask)

let[@inline] active mask lane = mask land (1 lsl lane) <> 0

let guard_mask w (d : D.instr) mask =
  let pm = w.w_preds.(d.D.guard) in
  if d.D.guard_neg then mask land lnot pm else mask land pm

(* --- Arithmetic ---------------------------------------------------------- *)

(* [op] is one of the opcodes that decode to [Decoded.Alu]. *)
let alu (op : Opcode.t) a b c =
  match op with
  | Opcode.MOV -> a
  | Opcode.BREV -> Value.brev a
  | Opcode.POPC -> Value.popc a
  | Opcode.FLO -> Value.flo a
  | Opcode.MUFU f -> Value.mufu f a
  | Opcode.I2F sign -> Value.i2f ~sign a
  | Opcode.F2I sign -> Value.f2i ~sign a
  | Opcode.IADD -> Value.add a b
  | Opcode.ISUB -> Value.sub a b
  | Opcode.IMUL -> Value.mul a b
  | Opcode.IDIV sign -> Value.div ~sign a b
  | Opcode.IMOD sign -> Value.rem ~sign a b
  | Opcode.IMNMX cmp -> Value.min_max ~cmp a b
  | Opcode.SHL -> Value.shl a b
  | Opcode.SHR sign -> Value.shr ~sign a b
  | Opcode.LOP l -> Value.logic l a b
  | Opcode.FADD -> Value.fadd a b
  | Opcode.FSUB -> Value.fsub a b
  | Opcode.FMUL -> Value.fmul a b
  | Opcode.FMNMX cmp -> Value.fmin_max ~cmp a b
  | Opcode.IMAD -> Value.mad a b c
  | Opcode.FFMA -> Value.ffma a b c
  | _ -> assert false

let exec_alu w ~stride launch (d : D.instr) mask =
  let s0 = d.D.s0 and s1 = d.D.s1 and s2 = d.D.s2 in
  let u0 = uniform launch s0
  and u1 = uniform launch s1
  and u2 = uniform launch s2 in
  for lane = 0 to warp_size - 1 do
    if active mask lane then
      set_reg w ~stride ~lane d.D.d0
        (alu d.D.op
           (value w ~stride ~lane s0 u0)
           (value w ~stride ~lane s1 u1)
           (value w ~stride ~lane s2 u2))
  done

(* [op] is [ISETP] or [FSETP]. *)
let compare (op : Opcode.t) a b =
  match op with
  | Opcode.ISETP (cmp, sign) -> Value.compare_int ~cmp ~sign a b
  | Opcode.FSETP cmp -> Value.compare_f32 ~cmp a b
  | _ -> assert false

let exec_setp w ~stride launch (d : D.instr) mask =
  let p = d.D.p0 in
  if p >= 0 then begin
    let s0 = d.D.s0 and s1 = d.D.s1 in
    let u0 = uniform launch s0 and u1 = uniform launch s1 in
    let bits = ref 0 in
    for lane = 0 to warp_size - 1 do
      if active mask lane then begin
        let a = value w ~stride ~lane s0 u0
        and b = value w ~stride ~lane s1 u1 in
        if compare d.D.op a b then bits := !bits lor (1 lsl lane)
      end
    done;
    set_pred_lanes w p ~mask !bits
  end

let exec_data sm w ~stride launch (d : D.instr) mask =
  let s0 = d.D.s0 and s1 = d.D.s1 in
  let u0 = uniform launch s0 and u1 = uniform launch s1 in
  match d.D.arm with
  | D.Sel ->
    let s2 = d.D.s2 in
    let u2 = uniform launch s2 in
    for lane = 0 to warp_size - 1 do
      if active mask lane then
        set_reg w ~stride ~lane d.D.d0
          (if value w ~stride ~lane s2 u2 <> 0 then value w ~stride ~lane s0 u0
           else value w ~stride ~lane s1 u1)
    done
  | D.S2r sr ->
    for lane = 0 to warp_size - 1 do
      if active mask lane then
        set_reg w ~stride ~lane d.D.d0 (special_value sm w ~lane sr)
    done
  | D.P2r ->
    for lane = 0 to warp_size - 1 do
      if active mask lane then begin
        let bits = ref 0 in
        for j = 0 to 6 do
          bits := !bits lor (((w.w_preds.(j) lsr lane) land 1) lsl j)
        done;
        set_reg w ~stride ~lane d.D.d0 !bits
      end
    done
  | D.R2p ->
    for lane = 0 to warp_size - 1 do
      if active mask lane then begin
        let bits = value w ~stride ~lane s0 u0 in
        for j = 0 to 6 do
          set_pred_lanes w j ~mask:(1 lsl lane) ((bits lsr j) lsl lane)
        done
      end
    done
  | D.Psetp logic ->
    let p = d.D.p0 in
    if p >= 0 then begin
      let bits = ref 0 in
      for lane = 0 to warp_size - 1 do
        if active mask lane then begin
          let a = value w ~stride ~lane s0 u0 <> 0
          and b = value w ~stride ~lane s1 u1 <> 0 in
          if
            match logic with
            | Opcode.L_and -> a && b
            | Opcode.L_or -> a || b
            | Opcode.L_xor -> a <> b
            | Opcode.L_not -> not a
          then bits := !bits lor (1 lsl lane)
        end
      done;
      set_pred_lanes w p ~mask !bits
    end
  | D.Vote { mode; to_pred } ->
    let ballot = ref 0 in
    for lane = 0 to warp_size - 1 do
      if active mask lane && value w ~stride ~lane s0 u0 <> 0 then
        ballot := !ballot lor (1 lsl lane)
    done;
    let ballot = !ballot in
    let r =
      match mode with
      | Opcode.V_ballot -> ballot
      | Opcode.V_any -> if ballot <> 0 then 1 else 0
      | Opcode.V_all -> if ballot = mask then 1 else 0
    in
    if not to_pred then
      for lane = 0 to warp_size - 1 do
        if active mask lane then set_reg w ~stride ~lane d.D.d0 r
      done
    else if d.D.p0 >= 0 then
      set_pred_lanes w d.D.p0 ~mask (if r <> 0 then full_mask else 0)
  | D.Shfl mode ->
    (* Read all source values first: dst may alias src. *)
    let values = sm.sm_addrs in
    for lane = 0 to warp_size - 1 do
      if active mask lane then values.(lane) <- value w ~stride ~lane s0 u0
    done;
    for lane = 0 to warp_size - 1 do
      if active mask lane then begin
        let b = value w ~stride ~lane s1 u1 in
        let target =
          match mode with
          | Opcode.S_idx -> b land 31
          | Opcode.S_up -> lane - b
          | Opcode.S_down -> lane + b
          | Opcode.S_bfly -> lane lxor b
        in
        set_reg w ~stride ~lane d.D.d0
          (if target < 0 || target >= warp_size || not (active mask target)
           then values.(lane)
           else values.(target))
      end
    done
  | _ -> assert false

(* --- Memory -------------------------------------------------------------- *)

(* Byte address of texture element [idx] (clamp addressing mode;
   coordinates are signed). *)
let texture_addr launch ~bytes idx =
  match launch.l_device.d_texture with
  | None ->
    raise (Trap.Memory_fault
             { space = Opcode.Tex; addr = idx; kind = Trap.Out_of_bounds })
  | Some (base, size) ->
    let n = size / bytes in
    let idx = Value.signed idx in
    let idx = if idx < 0 then 0 else if idx >= n then n - 1 else idx in
    base + (idx * bytes)

(* One warp-level memory transaction record; the [None] branch is the
   whole cost when tracing is off. *)
let trace_mem dev sm w ~space ~write ~bytes ~lanes (r : Memsys.result) =
  match sm.sm_tracer with
  | None -> ()
  | Some c ->
    if Trace.Collector.wants c Trace.Record.Mem then
      Trace.Collector.emit c
        (Trace.Record.make
           ~cycle:(dev.d_trace_base + sm.sm_cycle)
           ~sm:sm.sm_id ~warp:(warp_uid w)
           (Trace.Record.Mem_access
              { space;
                write;
                bytes;
                lanes;
                transactions = r.Memsys.transactions }))

let atomic_value aop ~width ~old ~operand ~swap =
  match aop with
  | Opcode.A_add ->
    (match width with
     | Opcode.W64 -> old + operand
     | _ -> Value.add old operand)
  | Opcode.A_min -> Value.min_max ~cmp:Opcode.Lt old operand
  | Opcode.A_max -> Value.min_max ~cmp:Opcode.Gt old operand
  | Opcode.A_exch -> operand
  | Opcode.A_cas -> if old = operand then swap else old
  | Opcode.A_and -> old land operand
  | Opcode.A_or -> old lor operand
  | Opcode.A_xor -> old lxor operand

(* Timing of the memory instruction [d] whose [n] lanes' physical
   addresses are packed in [sm_addrs]; returns its latency. *)
let mem_timing sm w (d : D.instr) ~same_offset n =
  let dev = w.w_block.b_launch.l_device in
  let mem = dev.d_mem and stats = sm.sm_stats and addrs = sm.sm_addrs in
  let bytes = d.D.bytes in
  let sm_id = sm.sm_id in
  let r =
    match d.D.arm with
    | D.Ld_global | D.St_global | D.Tld ->
      Memsys.global_access mem ~sm:sm_id ~stats ~width:bytes addrs n
    | D.Ld_local | D.St_local ->
      if same_offset then
        (* Same frame offset in every lane: the interleaved physical
           addresses form one contiguous run. *)
        Memsys.contiguous_access mem ~sm:sm_id ~stats ~first_phys:addrs.(0)
          ~last_phys:addrs.(n - 1) ~width:4
      else Memsys.global_access mem ~sm:sm_id ~stats ~width:4 addrs n
    | D.Atom { global = true; _ } ->
      Memsys.atomic_access mem ~sm:sm_id ~stats ~width:bytes addrs n
    | _ -> Memsys.shared_access mem ~sm:sm_id ~stats addrs n
  in
  let requested = n * bytes and tr = r.Memsys.transactions in
  (match d.D.arm with
   | D.Ld_global ->
     stats.Stats.gld_requested_bytes <-
       stats.Stats.gld_requested_bytes + requested;
     stats.Stats.gld_transactions <- stats.Stats.gld_transactions + tr
   | D.St_global ->
     stats.Stats.gst_requested_bytes <-
       stats.Stats.gst_requested_bytes + requested;
     stats.Stats.gst_transactions <- stats.Stats.gst_transactions + tr
   | _ -> ());
  let space =
    match d.D.arm with
    | D.Ld_global | D.St_global | D.Atom { global = true; _ } ->
      Trace.Record.Sp_global
    | D.Ld_local | D.St_local -> Trace.Record.Sp_local
    | D.Tld -> Trace.Record.Sp_texture
    | _ -> Trace.Record.Sp_shared
  in
  let write =
    match d.D.arm with
    | D.Ld_global | D.Ld_shared | D.Ld_local | D.Tld -> false
    | _ -> true
  in
  trace_mem dev sm w ~space ~write ~bytes ~lanes:n r;
  match d.D.arm with
  | D.Atom _ -> r.Memsys.latency + dev.d_cfg.Config.lat_atomic
  | _ -> r.Memsys.latency

(* Runs one memory instruction and returns its latency. Each lane's
   effective address (base + offset) is computed once, before that
   lane's destination write, and packed in lane order into
   [sm_addrs] for the timing model: the coalescer and bank model see
   the addresses even when a destination register aliases the
   base. *)
let exec_mem sm w ~stride launch (d : D.instr) mask =
  let dev = launch.l_device in
  let cfg = dev.d_cfg in
  let addrs = sm.sm_addrs in
  let s0 = d.D.s0 and s1 = d.D.s1 and s2 = d.D.s2 and s3 = d.D.s3 in
  let u0 = uniform launch s0
  and u1 = uniform launch s1
  and u2 = uniform launch s2
  and u3 = uniform launch s3 in
  let width = d.D.width and bytes = d.D.bytes in
  let d0 = d.D.d0 in
  let n = ref 0 in
  let same_offset = ref true in
  (match d.D.arm with
   | D.Ld_global | D.St_global | D.Ld_shared | D.St_shared | D.Ld_param ->
     let m =
       match d.D.arm with
       | D.Ld_global | D.St_global -> dev.d_global
       | D.Ld_shared | D.St_shared -> w.w_block.b_shared
       | _ -> launch.l_params
     in
     let load =
       match d.D.arm with
       | D.Ld_global | D.Ld_shared | D.Ld_param -> true
       | _ -> false
     in
     (* 64-bit global accesses move a register pair. *)
     let pair = width = Opcode.W64 && m == dev.d_global in
     for lane = 0 to warp_size - 1 do
       if active mask lane then begin
         let a =
           Value.wrap
             (value w ~stride ~lane s0 u0 + value w ~stride ~lane s1 u1)
         in
         addrs.(!n) <- a;
         incr n;
         if load then
           if pair then begin
             set_reg w ~stride ~lane d0 (Memory.read m ~width:Opcode.W32 a);
             set_reg w ~stride ~lane d.D.d1
               (Memory.read m ~width:Opcode.W32 (a + 4))
           end
           else set_reg w ~stride ~lane d0 (Memory.read m ~width a)
         else begin
           let v = value w ~stride ~lane s2 u2 in
           if pair then begin
             Memory.write m ~width:Opcode.W32 a v;
             Memory.write m ~width:Opcode.W32 (a + 4)
               (value w ~stride ~lane s3 u3)
           end
           else Memory.write m ~width a v
         end
       end
     done
   | D.Ld_local | D.St_local ->
     let load = match d.D.arm with D.Ld_local -> true | _ -> false in
     let frame = launch.l_kernel.Program.frame_bytes in
     (* Synthetic interleaved physical addresses: lane [l]'s frame
        offset [a] sits at [base + a * 32 + l * 4], so same-offset
        accesses from the 32 lanes of a warp coalesce perfectly, as
        hardware local memory does. *)
     let base = Memsys.local_window + (warp_uid w * frame * warp_size) in
     let first = ref (-1) in
     for lane = 0 to warp_size - 1 do
       if active mask lane then begin
         let a =
           Value.wrap
             (value w ~stride ~lane s0 u0 + value w ~stride ~lane s1 u1)
         in
         if !first < 0 then first := a
         else if a <> !first then same_offset := false;
         if a < 0 || a >= frame then
           raise (Trap.Memory_fault
                    { space = Opcode.Local; addr = a;
                      kind = Trap.Out_of_bounds });
         addrs.(!n) <- base + (a * warp_size) + (lane * 4);
         incr n;
         let slot = (lane * frame) + a in
         if load then
           set_reg w ~stride ~lane d0 (Memory.read w.w_local ~width slot)
         else Memory.write w.w_local ~width slot (value w ~stride ~lane s2 u2)
       end
     done
   | D.Ld_tex | D.Tld ->
     (* [TLD.64] fills a register pair; [LD] from the texture space
        reads its width into one register. *)
     let pair =
       match (d.D.arm, width) with
       | D.Tld, Opcode.W64 -> true
       | _ -> false
     in
     for lane = 0 to warp_size - 1 do
       if active mask lane then begin
         let a = texture_addr launch ~bytes (value w ~stride ~lane s0 u0) in
         addrs.(!n) <- Memsys.texture_window + a;
         incr n;
         let v = Memory.read dev.d_global ~width a in
         set_reg w ~stride ~lane d0 v;
         if pair then set_reg w ~stride ~lane d.D.d1 (v lsr 32)
       end
     done
   | D.Atom { global; aop; ret } ->
     let m = if global then dev.d_global else w.w_block.b_shared in
     for lane = 0 to warp_size - 1 do
       if active mask lane then begin
         let a =
           Value.wrap
             (value w ~stride ~lane s0 u0 + value w ~stride ~lane s1 u1)
         in
         addrs.(!n) <- a;
         incr n;
         let old = Memory.read m ~width a in
         Memory.write m ~width a
           (atomic_value aop ~width ~old
              ~operand:(value w ~stride ~lane s2 u2)
              ~swap:(value w ~stride ~lane s3 u3));
         if ret then set_reg w ~stride ~lane d0 old
       end
     done
   | _ -> assert false);
  match d.D.arm with
  | D.Ld_param -> cfg.Config.lat_alu
  (* Texture loads through [LD] cost one L1 hit and bypass the cache
     model. *)
  | D.Ld_tex -> cfg.Config.lat_l1
  | _ ->
    if !n = 0 then cfg.Config.lat_alu
    else mem_timing sm w d ~same_offset:!same_offset !n

(* --- Control --------------------------------------------------------------- *)

let branch sm w e (d : D.instr) ~pc mask =
  let stats = sm.sm_stats in
  if d.D.unguarded then d.D.target
  else begin
    stats.Stats.branches <- stats.Stats.branches + 1;
    (match sm.sm_telemetry with
     | None -> ()
     | Some tm -> Telemetry.Hist.observe tm.tm_branch_lanes (popc_mask mask));
    let taken = mask in
    let not_taken = e.e_mask land lnot mask in
    if taken = 0 then pc + 1
    else if not_taken = 0 then d.D.target
    else begin
      (* Divergence: split the warp. *)
      stats.Stats.divergent_branches <- stats.Stats.divergent_branches + 1;
      (match sm.sm_telemetry with
       | None -> ()
       | Some tm ->
         Telemetry.Hist.observe tm.tm_divergent_taken_lanes
           (popc_mask taken));
      let rpc = d.D.reconv in
      let rest =
        match w.w_stack with
        | _ :: r -> r
        | [] -> []
      in
      let cont =
        if rpc >= 0 then
          [ { e_pc = rpc; e_rpc = e.e_rpc; e_mask = e.e_mask } ]
        else []
      in
      let nt_entry = { e_pc = pc + 1; e_rpc = rpc; e_mask = not_taken } in
      let t_entry = { e_pc = d.D.target; e_rpc = rpc; e_mask = taken } in
      w.w_stack <- (t_entry :: nt_entry :: cont) @ rest;
      -2 (* stack already updated *)
    end
  end

let barrier sm w ~pc =
  let dev = w.w_block.b_launch.l_device in
  w.w_status <- W_barrier;
  (* Stamp the arrival cycle: if the barrier releases, each
     released warp's stamp gives its stall duration. The stamp is
     never earlier than the warp's previous ready time, so
     scheduling is unchanged whether or not tracing is on. *)
  w.w_ready_at <- sm.sm_cycle;
  w.w_block.b_arrived <- w.w_block.b_arrived + 1;
  (match sm.sm_tracer with
   | Some c when Trace.Collector.wants c Trace.Record.Warp ->
     Trace.Collector.emit c
       (Trace.Record.make
          ~cycle:(dev.d_trace_base + sm.sm_cycle)
          ~sm:sm.sm_id ~warp:(warp_uid w)
          (Trace.Record.Warp_barrier
             { pc; arrived = w.w_block.b_arrived }))
   | _ -> ());
  release_barrier_if_ready w.w_block;
  (match sm.sm_telemetry with
   | Some tm when w.w_status = W_ready ->
     (* The barrier released: every warp of the block now ready was
        waiting since its own arrival stamp (0 for the releaser). *)
     Array.iter
       (fun w' ->
          if w'.w_status = W_ready then
            Telemetry.Hist.observe tm.tm_barrier_wait
              (sm.sm_cycle - w'.w_ready_at))
       w.w_block.b_warps
   | _ -> ());
  match sm.sm_tracer with
  | Some c
    when w.w_status = W_ready && Trace.Collector.wants c Trace.Record.Warp ->
    (* The barrier released in this step: every warp of the block
       now ready was stalled since its own arrival stamp. *)
    Array.iter
      (fun w' ->
         if w'.w_status = W_ready && sm.sm_cycle > w'.w_ready_at then
           Trace.Collector.emit c
             (Trace.Record.make
                ~cycle:(dev.d_trace_base + w'.w_ready_at)
                ~sm:sm.sm_id ~warp:(warp_uid w')
                (Trace.Record.Warp_stall
                   { reason = Trace.Record.Stall_barrier;
                     cycles = sm.sm_cycle - w'.w_ready_at })))
      w.w_block.b_warps
  | _ -> ()

let hcall sm w ~id ~pc mask =
  let launch = w.w_block.b_launch in
  let dev = launch.l_device in
  let stats = sm.sm_stats in
  stats.Stats.hcalls <- stats.Stats.hcalls + 1;
  match dev.d_hcall with
  | None ->
    raise (Trap.Device_assert "HCALL executed with no SASSI runtime installed")
  | Some hook ->
    w.w_sassi_scratch <- 0;
    hook
      { h_launch = launch;
        h_sm = sm;
        h_warp = w;
        h_handler = id;
        h_pc = pc;
        h_mask = mask };
    (* Device-API operations performed by the handler charged
       their cycle cost into the warp's scratch accumulator. *)
    let charged = w.w_sassi_scratch in
    w.w_sassi_scratch <- 0;
    (2 * dev.d_cfg.Config.lat_alu) + charged

(* --- The main dispatch ------------------------------------------------- *)

let trace_issue dev sm w (d : D.instr) ~pc ~nactive ~latency c =
  if Trace.Collector.wants c Trace.Record.Warp then begin
    let cycle = dev.d_trace_base + sm.sm_cycle in
    let uid = warp_uid w in
    Trace.Collector.emit c
      (Trace.Record.make ~cycle ~sm:sm.sm_id ~warp:uid
         (Trace.Record.Warp_issue
            { pc; op = Opcode.to_string d.D.op; active = nactive }));
    (* Anything beyond the baseline ALU latency keeps the warp out
       of the issue pool: record it as a stall span. *)
    if latency > dev.d_cfg.Config.lat_alu then
      Trace.Collector.emit c
        (Trace.Record.make ~cycle ~sm:sm.sm_id ~warp:uid
           (Trace.Record.Warp_stall
              { reason =
                  (if d.D.is_mem then Trace.Record.Stall_memory
                   else Trace.Record.Stall_exec);
                cycles = latency }))
  end

let step sm w =
  reconverge w;
  let e = tos w in
  let launch = w.w_block.b_launch in
  let dev = launch.l_device in
  let cfg = dev.d_cfg in
  let code = launch.l_code in
  let stride = code.D.stride in
  let pc = e.e_pc in
  if pc < 0 || pc >= Array.length code.D.code then
    raise (Trap.Memory_fault
             { space = Opcode.Global; addr = pc;
               kind = Trap.Invalid_instruction });
  let d = Array.unsafe_get code.D.code pc in
  let mask = if d.D.unguarded then e.e_mask else guard_mask w d e.e_mask in
  let nactive = popc_mask mask in
  Stats.count sm.sm_stats ~cls:d.D.cls ~active_lanes:nactive;
  (match sm.sm_tracer with
   | Some _ ->
     (* Stamp this SM's context attached to L1/L2 probe records
        emitted from inside the memory system. *)
     Memsys.set_trace_ctx dev.d_mem ~sm:sm.sm_id
       ~cycle:(dev.d_trace_base + sm.sm_cycle)
       ~warp:(warp_uid w)
   | None -> ());
  let lat_alu = cfg.Config.lat_alu in
  (* [next_pc] -2: control flow already rewrote the stack. *)
  let next_pc = ref (pc + 1) in
  let latency =
    match d.D.arm with
    | D.Alu ->
      exec_alu w ~stride launch d mask;
      (match d.D.op with
       | Opcode.IDIV _ | Opcode.IMOD _ -> cfg.Config.lat_mufu * 2
       | Opcode.MUFU _ -> cfg.Config.lat_mufu
       | _ -> lat_alu)
    | D.Setp ->
      exec_setp w ~stride launch d mask;
      lat_alu
    | D.Sel | D.S2r _ | D.P2r | D.R2p | D.Psetp _ | D.Vote _ | D.Shfl _ ->
      exec_data sm w ~stride launch d mask;
      lat_alu
    | D.Ld_global | D.Ld_shared | D.Ld_local | D.Ld_param | D.Ld_tex
    | D.St_global | D.St_shared | D.St_local | D.Atom _ | D.Tld ->
      exec_mem sm w ~stride launch d mask
    | D.Nop -> lat_alu
    | D.Bra ->
      next_pc := branch sm w e d ~pc mask;
      lat_alu
    | D.Cal ->
      w.w_call_stack <- (pc + 1) :: w.w_call_stack;
      next_pc := d.D.target;
      lat_alu
    | D.Ret ->
      (match w.w_call_stack with
       | ret :: rest ->
         w.w_call_stack <- rest;
         next_pc := ret
       | [] ->
         (* RET at kernel top level exits, like PTX. *)
         warp_exit w mask;
         if w.w_stack = [] then next_pc := -2);
      lat_alu
    | D.Exit ->
      if mask <> 0 then begin
        warp_exit w mask;
        (* If some lanes remain (guarded EXIT), execution continues. *)
        if w.w_stack = [] then next_pc := -2
      end;
      lat_alu
    | D.Bar ->
      barrier sm w ~pc;
      lat_alu
    | D.Hcall id -> hcall sm w ~id ~pc mask
    | D.Fault space ->
      raise (Trap.Memory_fault
               { space; addr = 0; kind = Trap.Invalid_instruction })
    | D.Invalid msg -> invalid_arg msg
  in
  (* Advance the PC unless control flow already rewrote the stack. *)
  (match (!next_pc, w.w_stack) with
   | -2, _ -> ()
   | np, entry :: _ when entry == e -> e.e_pc <- np
   | _ -> ());
  (match sm.sm_tracer with
   | None -> ()
   | Some c -> trace_issue dev sm w d ~pc ~nactive ~latency c);
  (* PC sampling: remember the latency class of this instruction so
     a sample taken while the warp waits out [latency] can attribute
     the stall (memory vs. execution dependency). Single branch when
     no sampler is installed. *)
  (match sm.sm_sampler with
   | None -> ()
   | Some _ -> w.w_stall_code <- (if d.D.is_mem then 1 else 0));
  if w.w_status = W_ready then w.w_ready_at <- sm.sm_cycle + latency
