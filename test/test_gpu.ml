(* Execution tests for the GPU simulator, using hand-assembled SASS
   kernels. These validate exactly the patterns the backend compiler
   emits: guarded exits, divergent branches with PDOM reconvergence,
   loops, atomics, shared memory with barriers, and local spills. *)

open Sass

let check = Alcotest.check

(* Assembly helpers *)
let r = Reg.r
let sreg x = Instr.SReg (r x)
let imm x = Instr.SImm x
let param x = Instr.SParam x
let i ?guard ?dsts ?pdsts ?srcs ?target op =
  Instr.make ?guard ?dsts ?pdsts ?srcs ?target op

let kernel ?(frame = 0) ?(shared = 0) ?(params = 32) name instrs =
  Program.annotate_reconvergence
    (Program.make ~name ~param_bytes:params ~frame_bytes:frame
       ~shared_bytes:shared (Array.of_list instrs))

let device () = Gpu.Device.create ~cfg:Gpu.Config.small ()

(* gid = ctaid.x * ntid.x + tid.x in R0 *)
let compute_gid =
  [ i (Opcode.S2R Opcode.Sr_tid_x) ~dsts:[ r 0 ];
    i (Opcode.S2R Opcode.Sr_ctaid_x) ~dsts:[ r 2 ];
    i (Opcode.S2R Opcode.Sr_ntid_x) ~dsts:[ r 3 ];
    i Opcode.IMAD ~dsts:[ r 0 ] ~srcs:[ sreg 2; sreg 3; sreg 0 ] ]

(* out[gid] = a[gid] + b[gid] for gid < n; params: a, b, out, n *)
let vadd_kernel =
  kernel "vadd"
    (compute_gid
     @ [ (* if gid >= n then exit *)
         i (Opcode.ISETP (Opcode.Ge, Opcode.Signed)) ~pdsts:[ Pred.p 0 ]
           ~srcs:[ sreg 0; param 12 ];
         i Opcode.EXIT ~guard:(Pred.on (Pred.p 0));
         i Opcode.SHL ~dsts:[ r 4 ] ~srcs:[ sreg 0; imm 2 ];
         i Opcode.MOV ~dsts:[ r 5 ] ~srcs:[ param 0 ];
         i (Opcode.LD (Opcode.Global, Opcode.W32)) ~dsts:[ r 6 ]
           ~srcs:[ sreg 5; sreg 4 ];
         i Opcode.MOV ~dsts:[ r 7 ] ~srcs:[ param 4 ];
         i (Opcode.LD (Opcode.Global, Opcode.W32)) ~dsts:[ r 8 ]
           ~srcs:[ sreg 7; sreg 4 ];
         i Opcode.IADD ~dsts:[ r 9 ] ~srcs:[ sreg 6; sreg 8 ];
         i Opcode.MOV ~dsts:[ r 10 ] ~srcs:[ param 8 ];
         i (Opcode.ST (Opcode.Global, Opcode.W32))
           ~srcs:[ sreg 10; sreg 4; sreg 9 ];
         i Opcode.EXIT ])

let test_vadd () =
  let dev = device () in
  let n = 1000 in
  let a = Gpu.Device.malloc dev (4 * n) in
  let b = Gpu.Device.malloc dev (4 * n) in
  let out = Gpu.Device.malloc dev (4 * n) in
  Gpu.Device.write_i32s dev ~addr:a (Array.init n (fun i -> i));
  Gpu.Device.write_i32s dev ~addr:b (Array.init n (fun i -> 2 * i));
  let stats =
    Gpu.Device.launch dev ~kernel:vadd_kernel
      ~grid:((n + 127) / 128, 1)
      ~block:(128, 1)
      ~args:[ Gpu.Device.Ptr a; Gpu.Device.Ptr b; Gpu.Device.Ptr out;
              Gpu.Device.I32 n ]
  in
  let result = Gpu.Device.read_i32s dev ~addr:out ~n in
  Array.iteri
    (fun idx v ->
       if v <> 3 * idx then
         Alcotest.failf "out[%d] = %d, expected %d" idx v (3 * idx))
    result;
  check Alcotest.bool "executed instructions" true
    (stats.Gpu.Stats.warp_instrs > 0);
  check Alcotest.bool "cycles counted" true (stats.Gpu.Stats.cycles > 0);
  check Alcotest.bool "memory transactions" true
    (stats.Gpu.Stats.global_transactions > 0)

(* Divergence: out[gid] = tid < 16 ? 111 : 222 via a branch. *)
let branch_kernel =
  kernel "branchy"
    [ i (Opcode.S2R Opcode.Sr_tid_x) ~dsts:[ r 0 ];
      i (Opcode.ISETP (Opcode.Lt, Opcode.Signed)) ~pdsts:[ Pred.p 0 ]
        ~srcs:[ sreg 0; imm 16 ];
      (* @P0 BRA then-block *)
      i Opcode.BRA ~guard:(Pred.on (Pred.p 0)) ~target:5;
      i Opcode.MOV ~dsts:[ r 2 ] ~srcs:[ imm 222 ];
      i Opcode.BRA ~target:6;
      i Opcode.MOV ~dsts:[ r 2 ] ~srcs:[ imm 111 ];
      (* join: store *)
      i Opcode.SHL ~dsts:[ r 4 ] ~srcs:[ sreg 0; imm 2 ];
      i (Opcode.ST (Opcode.Global, Opcode.W32))
        ~srcs:[ param 0; sreg 4; sreg 2 ];
      i Opcode.EXIT ]

let test_divergence_reconvergence () =
  let dev = device () in
  let out = Gpu.Device.malloc dev (4 * 32) in
  let stats =
    Gpu.Device.launch dev ~kernel:branch_kernel ~grid:(1, 1) ~block:(32, 1)
      ~args:[ Gpu.Device.Ptr out ]
  in
  let result = Gpu.Device.read_i32s dev ~addr:out ~n:32 in
  for lane = 0 to 31 do
    let expected = if lane < 16 then 111 else 222 in
    check Alcotest.int (Printf.sprintf "lane %d" lane) expected result.(lane)
  done;
  check Alcotest.int "one divergent branch" 1
    stats.Gpu.Stats.divergent_branches;
  check Alcotest.int "one conditional branch warp-instr" 1
    stats.Gpu.Stats.branches

let test_uniform_branch_not_divergent () =
  let dev = device () in
  let out = Gpu.Device.malloc dev (4 * 32) in
  (* All 32 threads take the branch: tid < 32. *)
  let k =
    kernel "uniform"
      [ i (Opcode.S2R Opcode.Sr_tid_x) ~dsts:[ r 0 ];
        i (Opcode.ISETP (Opcode.Lt, Opcode.Signed)) ~pdsts:[ Pred.p 0 ]
          ~srcs:[ sreg 0; imm 32 ];
        i Opcode.BRA ~guard:(Pred.on (Pred.p 0)) ~target:5;
        i Opcode.MOV ~dsts:[ r 2 ] ~srcs:[ imm 222 ];
        i Opcode.BRA ~target:6;
        i Opcode.MOV ~dsts:[ r 2 ] ~srcs:[ imm 111 ];
        i Opcode.SHL ~dsts:[ r 4 ] ~srcs:[ sreg 0; imm 2 ];
        i (Opcode.ST (Opcode.Global, Opcode.W32))
          ~srcs:[ param 0; sreg 4; sreg 2 ];
        i Opcode.EXIT ]
  in
  let stats =
    Gpu.Device.launch dev ~kernel:k ~grid:(1, 1) ~block:(32, 1)
      ~args:[ Gpu.Device.Ptr out ]
  in
  check Alcotest.int "no divergence" 0 stats.Gpu.Stats.divergent_branches;
  check Alcotest.int "uniform result" 111
    (Gpu.Device.read_i32s dev ~addr:out ~n:1).(0)

(* Data-dependent loop: out[gid] = sum 1..(tid mod 7). *)
let loop_kernel =
  kernel "loopy"
    [ i (Opcode.S2R Opcode.Sr_tid_x) ~dsts:[ r 0 ];
      i (Opcode.IMOD Opcode.Signed) ~dsts:[ r 2 ] ~srcs:[ sreg 0; imm 7 ];
      i Opcode.MOV ~dsts:[ r 3 ] ~srcs:[ imm 0 ];  (* acc *)
      i Opcode.MOV ~dsts:[ r 4 ] ~srcs:[ imm 0 ];  (* i *)
      (* loop head: if i >= bound skip *)
      i (Opcode.ISETP (Opcode.Ge, Opcode.Signed)) ~pdsts:[ Pred.p 0 ]
        ~srcs:[ sreg 4; sreg 2 ];
      i Opcode.BRA ~guard:(Pred.on (Pred.p 0)) ~target:9;
      i Opcode.IADD ~dsts:[ r 4 ] ~srcs:[ sreg 4; imm 1 ];
      i Opcode.IADD ~dsts:[ r 3 ] ~srcs:[ sreg 3; sreg 4 ];
      i Opcode.BRA ~target:4;
      (* store *)
      i Opcode.SHL ~dsts:[ r 5 ] ~srcs:[ sreg 0; imm 2 ];
      i (Opcode.ST (Opcode.Global, Opcode.W32))
        ~srcs:[ param 0; sreg 5; sreg 3 ];
      i Opcode.EXIT ]

let test_divergent_loop () =
  let dev = device () in
  let out = Gpu.Device.malloc dev (4 * 64) in
  let stats =
    Gpu.Device.launch dev ~kernel:loop_kernel ~grid:(1, 1) ~block:(64, 1)
      ~args:[ Gpu.Device.Ptr out ]
  in
  let result = Gpu.Device.read_i32s dev ~addr:out ~n:64 in
  for t = 0 to 63 do
    let b = t mod 7 in
    let expected = b * (b + 1) / 2 in
    check Alcotest.int (Printf.sprintf "thread %d" t) expected result.(t)
  done;
  check Alcotest.bool "loop diverges" true
    (stats.Gpu.Stats.divergent_branches > 0)

let test_atomics () =
  let dev = device () in
  let counter = Gpu.Device.malloc dev 4 in
  let k =
    kernel "atomic_count"
      [ i (Opcode.ATOM (Opcode.Global, Opcode.A_add, Opcode.W32))
          ~dsts:[ r 2 ] ~srcs:[ param 0; imm 0; imm 1 ];
        i Opcode.EXIT ]
  in
  let _ =
    Gpu.Device.launch dev ~kernel:k ~grid:(4, 1) ~block:(64, 1)
      ~args:[ Gpu.Device.Ptr counter ]
  in
  check Alcotest.int "atomic sum" 256 (Gpu.Device.read_i32 dev counter)

let test_atomic_max_and_cas () =
  let dev = device () in
  let cell = Gpu.Device.malloc dev 8 in
  Gpu.Device.write_i32 dev cell 5;
  (* Each thread atomicMax(cell, tid). *)
  let k =
    kernel "atomic_max"
      [ i (Opcode.S2R Opcode.Sr_tid_x) ~dsts:[ r 0 ];
        i (Opcode.RED (Opcode.Global, Opcode.A_max, Opcode.W32))
          ~srcs:[ param 0; imm 0; sreg 0 ];
        i Opcode.EXIT ]
  in
  let _ =
    Gpu.Device.launch dev ~kernel:k ~grid:(1, 1) ~block:(64, 1)
      ~args:[ Gpu.Device.Ptr cell ]
  in
  check Alcotest.int "atomic max" 63 (Gpu.Device.read_i32 dev cell)

(* Shared-memory block reverse with a barrier. *)
let reverse_kernel =
  kernel "reverse" ~shared:(4 * 64)
    [ i (Opcode.S2R Opcode.Sr_tid_x) ~dsts:[ r 0 ];
      i Opcode.SHL ~dsts:[ r 2 ] ~srcs:[ sreg 0; imm 2 ];
      (* load in[tid] -> shared[tid] *)
      i (Opcode.LD (Opcode.Global, Opcode.W32)) ~dsts:[ r 3 ]
        ~srcs:[ param 0; sreg 2 ];
      i (Opcode.ST (Opcode.Shared, Opcode.W32)) ~srcs:[ sreg 2; imm 0; sreg 3 ];
      i Opcode.BAR;
      (* out[tid] = shared[63 - tid] *)
      i Opcode.MOV ~dsts:[ r 4 ] ~srcs:[ imm 63 ];
      i Opcode.ISUB ~dsts:[ r 4 ] ~srcs:[ sreg 4; sreg 0 ];
      i Opcode.SHL ~dsts:[ r 4 ] ~srcs:[ sreg 4; imm 2 ];
      i (Opcode.LD (Opcode.Shared, Opcode.W32)) ~dsts:[ r 5 ]
        ~srcs:[ sreg 4; imm 0 ];
      i (Opcode.ST (Opcode.Global, Opcode.W32))
        ~srcs:[ param 4; sreg 2; sreg 5 ];
      i Opcode.EXIT ]

let test_shared_barrier () =
  let dev = device () in
  let input = Gpu.Device.malloc dev (4 * 64) in
  let out = Gpu.Device.malloc dev (4 * 64) in
  Gpu.Device.write_i32s dev ~addr:input (Array.init 64 (fun i -> i * 10));
  let _ =
    Gpu.Device.launch dev ~kernel:reverse_kernel ~grid:(1, 1) ~block:(64, 1)
      ~args:[ Gpu.Device.Ptr input; Gpu.Device.Ptr out ]
  in
  let result = Gpu.Device.read_i32s dev ~addr:out ~n:64 in
  for t = 0 to 63 do
    check Alcotest.int (Printf.sprintf "rev %d" t) ((63 - t) * 10) result.(t)
  done

(* Local memory spill/fill roundtrip. *)
let test_local_spill () =
  let dev = device () in
  let out = Gpu.Device.malloc dev (4 * 32) in
  let k =
    kernel "spill" ~frame:16
      [ i (Opcode.S2R Opcode.Sr_tid_x) ~dsts:[ r 0 ];
        (* push frame *)
        i Opcode.IADD ~dsts:[ r 1 ] ~srcs:[ sreg 1; imm (-16) ];
        i (Opcode.ST (Opcode.Local, Opcode.W32)) ~srcs:[ sreg 1; imm 4; sreg 0 ];
        i Opcode.MOV ~dsts:[ r 0 ] ~srcs:[ imm 0 ];
        i (Opcode.LD (Opcode.Local, Opcode.W32)) ~dsts:[ r 2 ]
          ~srcs:[ sreg 1; imm 4 ];
        i Opcode.IADD ~dsts:[ r 1 ] ~srcs:[ sreg 1; imm 16 ];
        i Opcode.SHL ~dsts:[ r 3 ] ~srcs:[ sreg 2; imm 2 ];
        i (Opcode.ST (Opcode.Global, Opcode.W32))
          ~srcs:[ param 0; sreg 3; sreg 2 ];
        i Opcode.EXIT ]
  in
  let stats =
    Gpu.Device.launch dev ~kernel:k ~grid:(1, 1) ~block:(32, 1)
      ~args:[ Gpu.Device.Ptr out ]
  in
  let result = Gpu.Device.read_i32s dev ~addr:out ~n:32 in
  for t = 0 to 31 do
    check Alcotest.int (Printf.sprintf "spill %d" t) t result.(t)
  done;
  check Alcotest.bool "spill instrs counted" true
    (stats.Gpu.Stats.spill_instrs > 0)

(* Warp intrinsics: ballot/popc. out[tid] = popc(ballot(tid mod 2 = 0)). *)
let test_vote_ballot () =
  let dev = device () in
  let out = Gpu.Device.malloc dev (4 * 32) in
  let k =
    kernel "ballot"
      [ i (Opcode.S2R Opcode.Sr_tid_x) ~dsts:[ r 0 ];
        i (Opcode.LOP Opcode.L_and) ~dsts:[ r 2 ] ~srcs:[ sreg 0; imm 1 ];
        i (Opcode.ISETP (Opcode.Eq, Opcode.Signed)) ~pdsts:[ Pred.p 0 ]
          ~srcs:[ sreg 2; imm 0 ];
        i (Opcode.VOTE Opcode.V_ballot) ~dsts:[ r 3 ]
          ~srcs:[ Instr.SPred (Pred.p 0) ];
        i Opcode.POPC ~dsts:[ r 4 ] ~srcs:[ sreg 3 ];
        i Opcode.SHL ~dsts:[ r 5 ] ~srcs:[ sreg 0; imm 2 ];
        i (Opcode.ST (Opcode.Global, Opcode.W32))
          ~srcs:[ param 0; sreg 5; sreg 4 ];
        i Opcode.EXIT ]
  in
  let _ =
    Gpu.Device.launch dev ~kernel:k ~grid:(1, 1) ~block:(32, 1)
      ~args:[ Gpu.Device.Ptr out ]
  in
  let result = Gpu.Device.read_i32s dev ~addr:out ~n:32 in
  Array.iter (fun v -> check Alcotest.int "16 even lanes" 16 v) result

(* Shuffle: rotate values by 1 lane. *)
let test_shfl () =
  let dev = device () in
  let out = Gpu.Device.malloc dev (4 * 32) in
  let k =
    kernel "shfl"
      [ i (Opcode.S2R Opcode.Sr_tid_x) ~dsts:[ r 0 ];
        i Opcode.IADD ~dsts:[ r 2 ] ~srcs:[ sreg 0; imm 1 ];
        i (Opcode.LOP Opcode.L_and) ~dsts:[ r 2 ] ~srcs:[ sreg 2; imm 31 ];
        i (Opcode.SHFL Opcode.S_idx) ~dsts:[ r 3 ] ~srcs:[ sreg 0; sreg 2 ];
        i Opcode.SHL ~dsts:[ r 4 ] ~srcs:[ sreg 0; imm 2 ];
        i (Opcode.ST (Opcode.Global, Opcode.W32))
          ~srcs:[ param 0; sreg 4; sreg 3 ];
        i Opcode.EXIT ]
  in
  let _ =
    Gpu.Device.launch dev ~kernel:k ~grid:(1, 1) ~block:(32, 1)
      ~args:[ Gpu.Device.Ptr out ]
  in
  let result = Gpu.Device.read_i32s dev ~addr:out ~n:32 in
  for t = 0 to 31 do
    check Alcotest.int (Printf.sprintf "shfl %d" t) ((t + 1) mod 32) result.(t)
  done

let test_float_ops () =
  let dev = device () in
  let out = Gpu.Device.malloc dev (4 * 32) in
  (* out[tid] = tid * 0.5 + 1.0 via I2F/FFMA *)
  let k =
    kernel "fops"
      [ i (Opcode.S2R Opcode.Sr_tid_x) ~dsts:[ r 0 ];
        i (Opcode.I2F Opcode.Signed) ~dsts:[ r 2 ] ~srcs:[ sreg 0 ];
        i Opcode.MOV ~dsts:[ r 3 ] ~srcs:[ imm (Gpu.Value.bits_of_f32 0.5) ];
        i Opcode.MOV ~dsts:[ r 4 ] ~srcs:[ imm (Gpu.Value.bits_of_f32 1.0) ];
        i Opcode.FFMA ~dsts:[ r 5 ] ~srcs:[ sreg 2; sreg 3; sreg 4 ];
        i Opcode.SHL ~dsts:[ r 6 ] ~srcs:[ sreg 0; imm 2 ];
        i (Opcode.ST (Opcode.Global, Opcode.W32))
          ~srcs:[ param 0; sreg 6; sreg 5 ];
        i Opcode.EXIT ]
  in
  let _ =
    Gpu.Device.launch dev ~kernel:k ~grid:(1, 1) ~block:(32, 1)
      ~args:[ Gpu.Device.Ptr out ]
  in
  let result = Gpu.Device.read_f32s dev ~addr:out ~n:32 in
  for t = 0 to 31 do
    check (Alcotest.float 1e-6) (Printf.sprintf "f %d" t)
      ((float_of_int t *. 0.5) +. 1.0)
      result.(t)
  done

let test_memory_fault () =
  let dev = device () in
  let k =
    kernel "oob"
      [ i (Opcode.ST (Opcode.Global, Opcode.W32))
          ~srcs:[ imm 0x7FFFFFF0; imm 0; imm 1 ];
        i Opcode.EXIT ]
  in
  (match
     Gpu.Device.launch dev ~kernel:k ~grid:(1, 1) ~block:(32, 1) ~args:[]
   with
   | _ -> Alcotest.fail "expected a memory fault"
   | exception Gpu.Trap.Memory_fault _ -> ())

let test_hang_watchdog () =
  let dev =
    Gpu.Device.create
      ~cfg:{ Gpu.Config.small with Gpu.Config.max_cycles = 10_000 }
      ()
  in
  let k =
    kernel "spin"
      [ i Opcode.NOP; i Opcode.BRA ~target:0; i Opcode.EXIT ]
  in
  (match Gpu.Device.launch dev ~kernel:k ~grid:(1, 1) ~block:(32, 1) ~args:[] with
   | _ -> Alcotest.fail "expected a hang"
   | exception Gpu.Trap.Hang _ -> ())

(* Memory coalescing shapes: unit-stride warp -> few transactions;
   stride-32 -> one transaction per lane. *)
let stride_kernel name stride =
  kernel name
    (compute_gid
     @ [ i Opcode.IMUL ~dsts:[ r 4 ] ~srcs:[ sreg 0; imm (4 * stride) ];
         i (Opcode.LD (Opcode.Global, Opcode.W32)) ~dsts:[ r 5 ]
           ~srcs:[ param 0; sreg 4 ];
         i Opcode.EXIT ])

let test_coalescing () =
  let dev = device () in
  let buf = Gpu.Device.malloc dev (4 * 32 * 32) in
  let s1 =
    Gpu.Device.launch dev ~kernel:(stride_kernel "stride1" 1) ~grid:(1, 1)
      ~block:(32, 1) ~args:[ Gpu.Device.Ptr buf ]
  in
  let s32 =
    Gpu.Device.launch dev ~kernel:(stride_kernel "stride32" 32) ~grid:(1, 1)
      ~block:(32, 1) ~args:[ Gpu.Device.Ptr buf ]
  in
  check Alcotest.int "unit stride: 4 transactions (128B / 32B lines)" 4
    s1.Gpu.Stats.global_transactions;
  check Alcotest.int "stride 32: 32 transactions" 32
    s32.Gpu.Stats.global_transactions

let test_coalesce_function () =
  let lines = Gpu.Memsys.coalesce ~line_bytes:32 [ (0, 4); (4, 4); (28, 8) ] in
  check (Alcotest.list Alcotest.int) "straddle" [ 0; 1 ] lines;
  let lines2 =
    Gpu.Memsys.coalesce ~line_bytes:32
      (List.init 32 (fun i -> (i * 4, 4)))
  in
  check Alcotest.int "full warp unit stride" 4 (List.length lines2)

(* Ragged block: only 40 threads in a 64-thread block shape. *)
let test_ragged_block () =
  let dev = device () in
  let out = Gpu.Device.malloc dev (4 * 64) in
  Gpu.Device.memset dev ~addr:out ~len:(4 * 64) '\255';
  let k =
    kernel "ragged"
      [ i (Opcode.S2R Opcode.Sr_tid_x) ~dsts:[ r 0 ];
        i Opcode.SHL ~dsts:[ r 2 ] ~srcs:[ sreg 0; imm 2 ];
        i (Opcode.ST (Opcode.Global, Opcode.W32))
          ~srcs:[ param 0; sreg 2; sreg 0 ];
        i Opcode.EXIT ]
  in
  let _ =
    Gpu.Device.launch dev ~kernel:k ~grid:(1, 1) ~block:(40, 1)
      ~args:[ Gpu.Device.Ptr out ]
  in
  let result = Gpu.Device.read_i32s dev ~addr:out ~n:64 in
  for t = 0 to 39 do
    check Alcotest.int (Printf.sprintf "t%d" t) t result.(t)
  done;
  for t = 40 to 63 do
    check Alcotest.int (Printf.sprintf "untouched %d" t) 0xFFFFFFFF result.(t)
  done

(* Multi-block, multi-SM grids produce correct results. *)
let test_many_blocks () =
  let dev = device () in
  let n = 4096 in
  let a = Gpu.Device.malloc dev (4 * n) in
  let b = Gpu.Device.malloc dev (4 * n) in
  let out = Gpu.Device.malloc dev (4 * n) in
  Gpu.Device.write_i32s dev ~addr:a (Array.init n (fun i -> i));
  Gpu.Device.write_i32s dev ~addr:b (Array.init n (fun i -> i * i land 0xFF));
  let _ =
    Gpu.Device.launch dev ~kernel:vadd_kernel ~grid:(n / 64, 1) ~block:(64, 1)
      ~args:[ Gpu.Device.Ptr a; Gpu.Device.Ptr b; Gpu.Device.Ptr out;
              Gpu.Device.I32 n ]
  in
  let result = Gpu.Device.read_i32s dev ~addr:out ~n in
  for idx = 0 to n - 1 do
    if result.(idx) <> idx + (idx * idx land 0xFF) then
      Alcotest.failf "out[%d] wrong" idx
  done

(* --- Value unit + property tests -------------------------------------- *)

let test_value_wrap () =
  check Alcotest.int "add wraps" 0 (Gpu.Value.add 0xFFFFFFFF 1);
  check Alcotest.int "sub wraps" 0xFFFFFFFF (Gpu.Value.sub 0 1);
  check Alcotest.int "signed" (-1) (Gpu.Value.signed 0xFFFFFFFF);
  check Alcotest.int "of_signed" 0xFFFFFFFF (Gpu.Value.of_signed (-1));
  check Alcotest.int "div signed" (Gpu.Value.of_signed (-3))
    (Gpu.Value.div ~sign:Opcode.Signed (Gpu.Value.of_signed (-7)) 2);
  check Alcotest.int "div by zero" 0xFFFFFFFF
    (Gpu.Value.div ~sign:Opcode.Unsigned 5 0);
  check Alcotest.int "shr arith" 0xFFFFFFFF
    (Gpu.Value.shr ~sign:Opcode.Signed 0x80000000 31);
  check Alcotest.int "shl big" 0 (Gpu.Value.shl 1 32)

let test_value_bits () =
  check Alcotest.int "popc" 8 (Gpu.Value.popc 0xFF);
  check Alcotest.int "flo" 7 (Gpu.Value.flo 0xFF);
  check Alcotest.int "flo 0" 0xFFFFFFFF (Gpu.Value.flo 0);
  check Alcotest.int "ffs" 1 (Gpu.Value.ffs 0xFF);
  check Alcotest.int "ffs 0" 0 (Gpu.Value.ffs 0);
  check Alcotest.int "ffs bit5" 6 (Gpu.Value.ffs 0x20);
  check Alcotest.int "brev" 0x80000000 (Gpu.Value.brev 1);
  check Alcotest.int "brev sym" 1 (Gpu.Value.brev 0x80000000)

let test_value_floats () =
  let f = 3.25 in
  check (Alcotest.float 0.0) "f32 roundtrip" f
    (Gpu.Value.f32_of_bits (Gpu.Value.bits_of_f32 f));
  check Alcotest.int "fadd" (Gpu.Value.bits_of_f32 5.5)
    (Gpu.Value.fadd (Gpu.Value.bits_of_f32 2.25) (Gpu.Value.bits_of_f32 3.25));
  check Alcotest.int "i2f" (Gpu.Value.bits_of_f32 42.0)
    (Gpu.Value.i2f ~sign:Opcode.Signed 42);
  check Alcotest.int "f2i trunc" 3
    (Gpu.Value.f2i ~sign:Opcode.Signed (Gpu.Value.bits_of_f32 3.9));
  check Alcotest.int "f2i neg" (Gpu.Value.of_signed (-3))
    (Gpu.Value.f2i ~sign:Opcode.Signed (Gpu.Value.bits_of_f32 (-3.9)))

let prop_value_u32 =
  let open QCheck in
  Test.make ~name:"u32 ops stay in range" ~count:500
    (pair (int_bound 0xFFFFFFF) (int_bound 0xFFFFFFF))
    (fun (a, b) ->
       let in_range v = v >= 0 && v <= 0xFFFFFFFF in
       in_range (Gpu.Value.add a b)
       && in_range (Gpu.Value.sub a b)
       && in_range (Gpu.Value.mul a b)
       && in_range (Gpu.Value.shl a (b land 63))
       && in_range (Gpu.Value.shr ~sign:Opcode.Signed a (b land 63))
       && in_range (Gpu.Value.brev a))

let prop_signed_roundtrip =
  let open QCheck in
  Test.make ~name:"signed/of_signed roundtrip" ~count:500
    (int_range (-0x80000000) 0x7FFFFFFF)
    (fun x -> Gpu.Value.signed (Gpu.Value.of_signed x) = x)

let prop_popc_brev =
  let open QCheck in
  Test.make ~name:"popc invariant under brev" ~count:500
    (int_bound 0xFFFFFFF)
    (fun x -> Gpu.Value.popc x = Gpu.Value.popc (Gpu.Value.brev x))

(* --- Cache / memory unit tests ----------------------------------------- *)

let test_cache_lru () =
  let c = Cache_testable.make_cache () in
  (* 2 sets x 2 ways, 32B lines: addresses 0, 64, 128 map to set 0. *)
  check Alcotest.bool "miss 0" true (Cache_testable.miss c 0);
  check Alcotest.bool "miss 64" true (Cache_testable.miss c 64);
  check Alcotest.bool "hit 0" false (Cache_testable.miss c 0);
  check Alcotest.bool "miss 128 evicts 64" true (Cache_testable.miss c 128);
  check Alcotest.bool "hit 0 still" false (Cache_testable.miss c 0);
  check Alcotest.bool "64 was evicted" true (Cache_testable.miss c 64)

let test_memory_bounds () =
  let m = Gpu.Memory.create ~space:Opcode.Global 64 in
  Gpu.Memory.write m ~width:Opcode.W32 60 42;
  check Alcotest.int "read back" 42 (Gpu.Memory.read m ~width:Opcode.W32 60);
  (match Gpu.Memory.read m ~width:Opcode.W32 62 with
   | _ -> Alcotest.fail "expected fault"
   | exception Gpu.Trap.Memory_fault _ -> ());
  (match Gpu.Memory.read m ~width:Opcode.W8 (-1) with
   | _ -> Alcotest.fail "expected fault"
   | exception Gpu.Trap.Memory_fault _ -> ())

let test_memory_widths () =
  let m = Gpu.Memory.create ~space:Opcode.Global 64 in
  Gpu.Memory.write m ~width:Opcode.W8 0 0xAB;
  Gpu.Memory.write m ~width:Opcode.W8 1 0xCD;
  check Alcotest.int "w16 le" 0xCDAB (Gpu.Memory.read m ~width:Opcode.W16 0);
  Gpu.Memory.write_u64 m 8 0x123456789AB;
  check Alcotest.int "u64" 0x123456789AB (Gpu.Memory.read_u64 m 8);
  Gpu.Memory.write m ~width:Opcode.W32 16 0xFFFFFFFF;
  check Alcotest.int "u32 max" 0xFFFFFFFF (Gpu.Memory.read m ~width:Opcode.W32 16)

(* --- CAL/RET, VOTE.ANY/ALL with predicate dsts, MEMBAR, TLD ------------ *)

let test_cal_ret () =
  (* main: CAL f; store R2; EXIT.  f: R2 = tid * 3; RET. *)
  let dev = device () in
  let out = Gpu.Device.malloc dev (4 * 32) in
  let k =
    kernel "calret"
      [ i Opcode.CAL ~target:4;
        i Opcode.SHL ~dsts:[ r 3 ] ~srcs:[ sreg 0; imm 2 ];
        i (Opcode.ST (Opcode.Global, Opcode.W32))
          ~srcs:[ param 0; sreg 3; sreg 2 ];
        i Opcode.EXIT;
        (* subroutine *)
        i (Opcode.S2R Opcode.Sr_tid_x) ~dsts:[ r 0 ];
        i Opcode.IMUL ~dsts:[ r 2 ] ~srcs:[ sreg 0; imm 3 ];
        i Opcode.RET ]
  in
  let _ =
    Gpu.Device.launch dev ~kernel:k ~grid:(1, 1) ~block:(32, 1)
      ~args:[ Gpu.Device.Ptr out ]
  in
  let result = Gpu.Device.read_i32s dev ~addr:out ~n:32 in
  for t = 0 to 31 do
    check Alcotest.int (Printf.sprintf "cal %d" t) (t * 3) result.(t)
  done

let test_vote_any_all_pdst () =
  (* P1 = VOTE.ANY(tid == 5); P2 = VOTE.ALL(tid < 32); store (P1,P2). *)
  let dev = device () in
  let out = Gpu.Device.malloc dev (4 * 32) in
  let k =
    kernel "voteaa"
      [ i (Opcode.S2R Opcode.Sr_tid_x) ~dsts:[ r 0 ];
        i (Opcode.ISETP (Opcode.Eq, Opcode.Signed)) ~pdsts:[ Pred.p 0 ]
          ~srcs:[ sreg 0; imm 5 ];
        i (Opcode.VOTE Opcode.V_any) ~pdsts:[ Pred.p 1 ]
          ~srcs:[ Instr.SPred (Pred.p 0) ];
        i (Opcode.ISETP (Opcode.Lt, Opcode.Signed)) ~pdsts:[ Pred.p 0 ]
          ~srcs:[ sreg 0; imm 32 ];
        i (Opcode.VOTE Opcode.V_all) ~pdsts:[ Pred.p 2 ]
          ~srcs:[ Instr.SPred (Pred.p 0) ];
        i Opcode.MEMBAR;
        i Opcode.IADD ~dsts:[ r 2 ]
          ~srcs:[ Instr.SPred (Pred.p 1); Instr.SPred (Pred.p 2) ];
        i Opcode.SHL ~dsts:[ r 3 ] ~srcs:[ sreg 0; imm 2 ];
        i (Opcode.ST (Opcode.Global, Opcode.W32))
          ~srcs:[ param 0; sreg 3; sreg 2 ];
        i Opcode.EXIT ]
  in
  let _ =
    Gpu.Device.launch dev ~kernel:k ~grid:(1, 1) ~block:(32, 1)
      ~args:[ Gpu.Device.Ptr out ]
  in
  let result = Gpu.Device.read_i32s dev ~addr:out ~n:32 in
  Array.iter (fun v -> check Alcotest.int "any+all = 2" 2 v) result

let test_tld_clamping () =
  (* Texture fetches clamp out-of-range indices instead of faulting. *)
  let dev = device () in
  let tex = Gpu.Device.malloc dev (4 * 8) in
  Gpu.Device.write_i32s dev ~addr:tex (Array.init 8 (fun i -> 100 + i));
  Gpu.Device.bind_texture dev ~addr:tex ~bytes:(4 * 8);
  let out = Gpu.Device.malloc dev (4 * 32) in
  let k =
    kernel "tldclamp"
      [ i (Opcode.S2R Opcode.Sr_tid_x) ~dsts:[ r 0 ];
        (* index = tid - 4: negative for tid<4, >7 for tid>11 *)
        i Opcode.IADD ~dsts:[ r 2 ] ~srcs:[ sreg 0; imm (-4) ];
        i (Opcode.TLD Opcode.W32) ~dsts:[ r 3 ] ~srcs:[ sreg 2 ];
        i Opcode.SHL ~dsts:[ r 4 ] ~srcs:[ sreg 0; imm 2 ];
        i (Opcode.ST (Opcode.Global, Opcode.W32))
          ~srcs:[ param 0; sreg 4; sreg 3 ];
        i Opcode.EXIT ]
  in
  let _ =
    Gpu.Device.launch dev ~kernel:k ~grid:(1, 1) ~block:(32, 1)
      ~args:[ Gpu.Device.Ptr out ]
  in
  let result = Gpu.Device.read_i32s dev ~addr:out ~n:32 in
  check Alcotest.int "clamped low" 100 result.(0);
  check Alcotest.int "in range" 101 result.(5);
  check Alcotest.int "clamped high" 107 result.(20)

(* --- Decoded dispatch: address aliasing, register stride ------------- *)

(* [LD R2, [R2]] with a 128-byte lane stride: every lane touches its
   own 32-byte line and 128-byte-apart shared words share bank 0. The
   loaded data (zeros) must not stand in for the addresses in the
   coalescer or the bank model. *)
let test_ld_dst_aliases_base () =
  let dev = device () in
  let buf = Gpu.Device.malloc dev (128 * 32) in
  let aliased space =
    kernel ~shared:(128 * 32)
      (match space with Opcode.Global -> "alias_g" | _ -> "alias_s")
      [ i (Opcode.S2R Opcode.Sr_tid_x) ~dsts:[ r 0 ];
        i Opcode.SHL ~dsts:[ r 2 ] ~srcs:[ sreg 0; imm 7 ];
        i Opcode.IADD ~dsts:[ r 2 ]
          ~srcs:
            [ sreg 2;
              (match space with Opcode.Global -> param 0 | _ -> imm 0) ];
        i (Opcode.LD (space, Opcode.W32)) ~dsts:[ r 2 ] ~srcs:[ sreg 2; imm 0 ];
        i Opcode.EXIT ]
  in
  let launch k =
    Gpu.Device.launch dev ~kernel:k ~grid:(1, 1) ~block:(32, 1)
      ~args:[ Gpu.Device.Ptr buf ]
  in
  let g = launch (aliased Opcode.Global) in
  check Alcotest.int "one line per lane" 32 g.Gpu.Stats.gld_transactions;
  let s = launch (aliased Opcode.Shared) in
  check Alcotest.int "32-way bank conflict" 31 s.Gpu.Stats.shared_conflicts

(* Register files are sized from the kernel: handlers can reach the
   registers it names and nothing past them. *)
let test_register_stride () =
  let dev = device () in
  let k =
    kernel "regs"
      [ i Opcode.MOV ~dsts:[ r 3 ] ~srcs:[ imm 7 ];
        i (Opcode.HCALL 0);
        i Opcode.EXIT ]
  in
  let seen = ref [] in
  Gpu.Device.set_hcall dev
    (Some
       (fun ctx ->
         let w = ctx.Gpu.State.h_warp in
         seen := Gpu.State.reg_get w ~lane:31 (r 3) :: !seen;
         match Gpu.State.reg_get w ~lane:0 (r 4) with
         | _ -> Alcotest.fail "R4 is not a register of the kernel"
         | exception Invalid_argument _ -> ()));
  ignore
    (Gpu.Device.launch dev ~kernel:k ~grid:(1, 1) ~block:(32, 1) ~args:[]);
  check (Alcotest.list Alcotest.int) "R3 of lane 31" [ 7 ] !seen

(* --- Paged global memory --------------------------------------------- *)

let test_paged_untouched_zero () =
  let size = 64 * 1024 * 1024 in
  let m = Gpu.Memory.create ~space:Opcode.Global size in
  List.iter
    (fun a ->
      check Alcotest.int "untouched reads zero" 0
        (Gpu.Memory.read m ~width:Opcode.W32 a))
    [ 0; Gpu.Memory.page_size - 2; size / 2; size - 4 ];
  check Alcotest.int "untouched u64" 0 (Gpu.Memory.read_u64 m (size - 8));
  Gpu.Memory.write m ~width:Opcode.W32 (size - 4) 0xDEADBEEF;
  check Alcotest.int "last word" 0xDEADBEEF
    (Gpu.Memory.read m ~width:Opcode.W32 (size - 4));
  check Alcotest.int "neighbour page still zero" 0
    (Gpu.Memory.read m ~width:Opcode.W32 (size - 4 - Gpu.Memory.page_size))

let test_paged_cross_boundary () =
  let page = Gpu.Memory.page_size in
  let m = Gpu.Memory.create ~space:Opcode.Global (4 * page) in
  let src = Bytes.init 10 (fun k -> Char.chr (0x10 + k)) in
  Gpu.Memory.blit_from_bytes m ~dst:(page - 3) src;
  let back = Bytes.create 10 in
  Gpu.Memory.blit_to_bytes m ~src:(page - 3) back;
  check Alcotest.string "blit round trip" (Bytes.to_string src)
    (Bytes.to_string back);
  check Alcotest.int "straddling w32" 0x13121110
    (Gpu.Memory.read m ~width:Opcode.W32 (page - 3));
  Gpu.Memory.write_u64 m ((2 * page) - 4) 0x0102030405060708;
  check Alcotest.int "straddling u64" 0x0102030405060708
    (Gpu.Memory.read_u64 m ((2 * page) - 4));
  Gpu.Memory.fill m ~pos:(page - 2) ~len:4 '\255';
  check Alcotest.int "straddling fill" 0xFFFFFF10
    (Gpu.Memory.read m ~width:Opcode.W32 (page - 3));
  check Alcotest.int "fill end" 0x171615FF
    (Gpu.Memory.read m ~width:Opcode.W32 (page + 1))

let test_paged_bounds () =
  let size = 64 * 1024 * 1024 in
  let m = Gpu.Memory.create ~space:Opcode.Global size in
  let faults_at expect f =
    match f () with
    | _ -> Alcotest.fail "expected fault"
    | exception Gpu.Trap.Memory_fault { addr; space; kind } ->
      check Alcotest.int "fault address" expect addr;
      check Alcotest.bool "global out of bounds" true
        (space = Opcode.Global && kind = Gpu.Trap.Out_of_bounds)
  in
  faults_at (size - 2) (fun () -> Gpu.Memory.read m ~width:Opcode.W32 (size - 2));
  faults_at size (fun () -> Gpu.Memory.write m ~width:Opcode.W8 size 1);
  faults_at (-1) (fun () -> Gpu.Memory.read m ~width:Opcode.W8 (-1));
  faults_at (size - 4) (fun () ->
      Gpu.Memory.blit_from_bytes m ~dst:(size - 4) (Bytes.make 8 'x'));
  faults_at (size - 1) (fun () ->
      Gpu.Memory.fill m ~pos:(size - 1) ~len:2 'x')

(* --- Allocation ratchet ---------------------------------------------- *)

(* In-launch minor-heap words per simulated warp-instruction, at one
   domain (the count is then deterministic). The interpreter's hot
   path allocates nothing per instruction; what remains is per-warp
   and per-launch set-up. *)
let minor_words_per_winstr w variant =
  let dev = Gpu.Device.create ~cfg:Gpu.Config.default ~domains:1 () in
  let started = ref 0. and words = ref 0. in
  ignore (Gpu.Device.on_launch dev (fun _ -> started := Gc.minor_words ()));
  ignore
    (Gpu.Device.on_exit dev (fun _ ->
         words := !words +. (Gc.minor_words () -. !started)));
  let r = w.Workloads.Workload.run dev ~variant in
  !words /. float_of_int r.Workloads.Workload.stats.Gpu.Stats.warp_instrs

let test_alloc_ratchet () =
  List.iter
    (fun (name, w, variant) ->
      let per = minor_words_per_winstr w variant in
      if per > 10. then
        Alcotest.failf "%s: %.2f minor words per warp-instruction (max 10)"
          name per)
    [ ("parboil/sgemm medium", Workloads.Wl_sgemm.workload, "medium");
      ("parboil/spmv large", Workloads.Wl_spmv.workload, "large") ]

let extra_suite =
  ("gpu.isa-extra",
   [ Alcotest.test_case "CAL/RET" `Quick test_cal_ret;
     Alcotest.test_case "VOTE any/all pdst" `Quick test_vote_any_all_pdst;
     Alcotest.test_case "TLD clamping" `Quick test_tld_clamping;
     Alcotest.test_case "LD dst aliases base" `Quick test_ld_dst_aliases_base;
     Alcotest.test_case "register stride" `Quick test_register_stride ])

let suite =
  let qt = QCheck_alcotest.to_alcotest in
  [ ("gpu.value",
     [ Alcotest.test_case "wrap" `Quick test_value_wrap;
       Alcotest.test_case "bits" `Quick test_value_bits;
       Alcotest.test_case "floats" `Quick test_value_floats;
       qt prop_value_u32;
       qt prop_signed_roundtrip;
       qt prop_popc_brev ]);
    ("gpu.memory",
     [ Alcotest.test_case "bounds" `Quick test_memory_bounds;
       Alcotest.test_case "widths" `Quick test_memory_widths;
       Alcotest.test_case "cache lru" `Quick test_cache_lru;
       Alcotest.test_case "coalesce fn" `Quick test_coalesce_function;
       Alcotest.test_case "paged untouched zero" `Quick
         test_paged_untouched_zero;
       Alcotest.test_case "paged cross boundary" `Quick
         test_paged_cross_boundary;
       Alcotest.test_case "paged bounds" `Quick test_paged_bounds;
       Alcotest.test_case "allocation ratchet" `Quick test_alloc_ratchet ]);
    ("gpu.exec",
     [ Alcotest.test_case "vadd" `Quick test_vadd;
       Alcotest.test_case "divergence" `Quick test_divergence_reconvergence;
       Alcotest.test_case "uniform branch" `Quick test_uniform_branch_not_divergent;
       Alcotest.test_case "divergent loop" `Quick test_divergent_loop;
       Alcotest.test_case "atomics" `Quick test_atomics;
       Alcotest.test_case "atomic max/red" `Quick test_atomic_max_and_cas;
       Alcotest.test_case "shared+barrier" `Quick test_shared_barrier;
       Alcotest.test_case "local spill" `Quick test_local_spill;
       Alcotest.test_case "ballot" `Quick test_vote_ballot;
       Alcotest.test_case "shfl" `Quick test_shfl;
       Alcotest.test_case "floats" `Quick test_float_ops;
       Alcotest.test_case "memory fault" `Quick test_memory_fault;
       Alcotest.test_case "hang watchdog" `Quick test_hang_watchdog;
       Alcotest.test_case "coalescing" `Quick test_coalescing;
       Alcotest.test_case "ragged block" `Quick test_ragged_block;
       Alcotest.test_case "many blocks" `Quick test_many_blocks ]);
    extra_suite ]
