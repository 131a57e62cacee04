open Sass

type operand =
  | Reg of int
  | Zero
  | Imm of int
  | Param of int
  | Pred of int

type arm =
  | Alu
  | Setp
  | Sel
  | S2r of Opcode.special
  | P2r
  | R2p
  | Psetp of Opcode.logic
  | Ld_global
  | Ld_shared
  | Ld_local
  | Ld_param
  | Ld_tex
  | St_global
  | St_shared
  | St_local
  | Atom of { global : bool; aop : Opcode.atom_op; ret : bool }
  | Tld
  | Vote of { mode : Opcode.vote; to_pred : bool }
  | Shfl of Opcode.shfl
  | Bra
  | Cal
  | Ret
  | Exit
  | Bar
  | Hcall of int
  | Nop
  | Fault of Opcode.space
  | Invalid of string

type instr = {
  op : Opcode.t;
  arm : arm;
  cls : int;
  unguarded : bool;
  guard : int;
  guard_neg : bool;
  d0 : int;
  d1 : int;
  p0 : int;
  s0 : operand;
  s1 : operand;
  s2 : operand;
  s3 : operand;
  width : Opcode.width;
  bytes : int;
  target : int;
  reconv : int;
  is_mem : bool;
}

type t = {
  kernel : Program.kernel;
  code : instr array;
  nregs : int;
  stride : int;
  shardable : bool;
}

(* Registers the kernel names: the highest GPR index in any operand,
   the ABI stack pointer R1 and the kernel's own [regs_used]. *)
let named_regs (k : Program.kernel) =
  let hi = ref (max 2 k.Program.regs_used) in
  let see = function
    | Reg.R i -> if i + 1 > !hi then hi := i + 1
    | Reg.RZ -> ()
  in
  Array.iter
    (fun (i : Instr.t) ->
      List.iter see i.Instr.dsts;
      List.iter
        (function Instr.SReg r -> see r | _ -> ())
        i.Instr.srcs)
    k.Program.instrs;
  !hi

(* --- Sharding eligibility ------------------------------------------------ *)

(* A launch may shard only when no instruction can observe another
   SM's work mid-flight: cross-block atomics (ATOM/RED on the global
   space) read-modify-write shared lines, and SASSI handlers (HCALL)
   run host code with launch-wide state. Both force the sequential
   path. The scan sees the post-transform kernel, so injected
   instrumentation is caught too. *)
(* Pointer-parameter origin analysis backing the eligibility scan: a
   flow-sensitive forward dataflow mapping each GPR, at each program
   point, to the bitset of kernel parameter slots its value may
   derive from (bit [i] = 4-byte slot [i]; the top bit is an "unknown
   base" token for addresses not traceable to any parameter). Joins
   are pointwise unions over {!Sass.Cfg.instr_successors} edges, so
   register reuse by the allocator (the same register holding an
   input pointer in one range and the output pointer in another) does
   not smear origins together. Values loaded from memory are treated
   as data, not pointers: in this machine, pointers enter kernels
   only through the constant bank, never through global/shared/local
   memory, so the assumption is sound for every compilable kernel. *)

let unknown_base_bit = 1 lsl 62

let slot_bit byte_off =
  let slot = byte_off / 4 in
  if slot >= 0 && slot < 62 then 1 lsl slot else unknown_base_bit

(* RZ never carries an origin: it is never written. *)
let reg_origin st = function
  | Reg.R i -> st.(i)
  | Reg.RZ -> 0

(* In-state per PC: reg index -> origin bitset, over the [nregs]
   registers the kernel names. Worklist seeded with every PC so
   unreachable code is analyzed too (its accesses then count toward
   the load/store sets — the conservative direction). *)
let param_origin_states ~nregs (instrs : Instr.t array) =
  let n = Array.length instrs in
  let states = Array.init n (fun _ -> Array.make nregs 0) in
  let pending = Array.make n true in
  let work = Queue.create () in
  for pc = 0 to n - 1 do
    Queue.add pc work
  done;
  while not (Queue.is_empty work) do
    let pc = Queue.pop work in
    pending.(pc) <- false;
    let st = states.(pc) in
    let i = instrs.(pc) in
    let src_origin = function
      | Instr.SReg r -> reg_origin st r
      | Instr.SParam off -> slot_bit off
      | Instr.SImm _ | Instr.SPred _ -> 0
    in
    let incoming =
      match Instr.mem_access i with
      | Some m when m.Instr.m_is_load ->
        (* LD Param propagates the parameter slot it names; loads
           from data spaces produce data (origin 0). *)
        (match m.Instr.m_space with
         | Opcode.Param ->
           (match (m.Instr.m_base, m.Instr.m_off) with
            | Instr.SImm b, Instr.SImm o -> slot_bit (b + o)
            | Instr.SParam off, Instr.SImm 0
            | Instr.SImm 0, Instr.SParam off -> slot_bit off
            | _ -> unknown_base_bit)
         | _ -> 0)
      | _ ->
        (* Base pointers survive only the ops address arithmetic uses
           on bases: add/sub, min/max clamps, bit masks, moves and
           selects. Scaling ops (multiply, shift, divide) consume
           offsets — an integer parameter like a row stride flows
           into every address through them, and keeping its origin
           would alias all loads with all stores. IMAD propagates
           only the addend; its product term is a scaled offset. *)
        let fold srcs =
          List.fold_left (fun acc s -> acc lor src_origin s) 0 srcs
        in
        (match i.Instr.op with
         | Opcode.IADD | Opcode.ISUB | Opcode.IMNMX _ | Opcode.LOP _
         | Opcode.MOV | Opcode.SEL ->
           fold i.Instr.srcs
         | Opcode.IMAD ->
           (match i.Instr.srcs with
            | _ :: _ :: addend :: _ -> src_origin addend
            | _ -> 0)
         | _ -> 0)
    in
    let out = Array.copy st in
    List.iter
      (fun r ->
        let idx = Reg.index r in
        (* A guarded write may not execute, so it only widens. *)
        if Pred.is_always i.Instr.guard then out.(idx) <- incoming
        else out.(idx) <- out.(idx) lor incoming)
      (Instr.defs i);
    List.iter
      (fun succ ->
        if succ >= 0 && succ < n then begin
          let s = states.(succ) in
          let changed = ref false in
          Array.iteri
            (fun k v ->
              let joined = v lor out.(k) in
              if joined <> v then begin
                s.(k) <- joined;
                changed := true
              end)
            s;
          if !changed && not pending.(succ) then begin
            pending.(succ) <- true;
            Queue.add succ work
          end
        end)
      (Cfg.instr_successors instrs pc)
  done;
  states

(* A kernel can shard only when no global load can alias a global
   store from another block. We approximate alias-freedom at the
   parameter level: collect the origin sets of every global load and
   store address and require them to be disjoint. This catches
   plain-store cross-block read-after-write hazards (e.g. an in-place
   update where one block reads a cell another block wrote) that the
   ATOM/RED scan cannot see. Write-write overlap through one
   parameter is not flagged — every kernel stores its outputs through
   some pointer — so kernels where two *blocks* store different
   values to the *same* address remain out of model, as they are for
   real hardware. [CAL] forces a fallback because the CFG treats it
   as straight-line, which would hide callee effects (the DSL never
   emits it; only hand-built programs could). *)
let shardable_kernel ~nregs (k : Program.kernel) =
  let no_traps =
    Array.for_all
      (fun (i : Instr.t) ->
        match i.Instr.op with
        | Opcode.ATOM (Opcode.Global, _, _)
        | Opcode.RED (Opcode.Global, _, _)
        | Opcode.HCALL _ | Opcode.CAL -> false
        | _ -> true)
      k.Program.instrs
  in
  no_traps
  &&
  let states = param_origin_states ~nregs k.Program.instrs in
  let load_set = ref 0 and store_set = ref 0 in
  Array.iteri
    (fun pc (i : Instr.t) ->
      match Instr.mem_access i with
      | Some m when m.Instr.m_space = Opcode.Global ->
        let st = states.(pc) in
        let of_src = function
          | Instr.SReg r -> reg_origin st r
          | Instr.SParam off -> slot_bit off
          | Instr.SImm _ | Instr.SPred _ -> 0
        in
        let o = of_src m.Instr.m_base lor of_src m.Instr.m_off in
        let o = if o = 0 then unknown_base_bit else o in
        if m.Instr.m_is_load then load_set := !load_set lor o;
        if m.Instr.m_is_store then store_set := !store_set lor o
      | _ -> ())
    k.Program.instrs;
  !load_set land !store_set = 0

(* --- Decoding ------------------------------------------------------------ *)

let operand = function
  | Instr.SReg (Reg.R i) -> Reg i
  | Instr.SReg Reg.RZ -> Zero
  | Instr.SImm v -> Imm (v land Value.mask)
  | Instr.SParam off -> Param off
  | Instr.SPred p -> Pred (Pred.index p)

(* Operands each arm reads, and whether it needs a GPR destination;
   a shortfall decodes to [Invalid] and traps when executed. *)
let arm_of (i : Instr.t) =
  let nsrcs = List.length i.Instr.srcs in
  let need ~srcs ~dst arm =
    if nsrcs < srcs then Invalid "Exec: missing source operand"
    else if dst && i.Instr.dsts = [] then Invalid "Exec: missing destination"
    else arm
  in
  let pair_ok = List.length i.Instr.dsts = 2 in
  match i.Instr.op with
  | Opcode.MOV | Opcode.BREV | Opcode.POPC | Opcode.FLO | Opcode.MUFU _
  | Opcode.I2F _ | Opcode.F2I _ ->
    need ~srcs:1 ~dst:true Alu
  | Opcode.IADD | Opcode.ISUB | Opcode.IMUL | Opcode.IDIV _ | Opcode.IMOD _
  | Opcode.IMNMX _ | Opcode.SHL | Opcode.SHR _ | Opcode.LOP _ | Opcode.FADD
  | Opcode.FSUB | Opcode.FMUL | Opcode.FMNMX _ ->
    need ~srcs:2 ~dst:true Alu
  | Opcode.IMAD | Opcode.FFMA -> need ~srcs:3 ~dst:true Alu
  | Opcode.ISETP _ | Opcode.FSETP _ ->
    if i.Instr.pdsts = [] then
      Invalid "Exec: SETP without predicate destination"
    else need ~srcs:2 ~dst:false Setp
  | Opcode.SEL -> need ~srcs:3 ~dst:true Sel
  | Opcode.S2R sr -> need ~srcs:0 ~dst:true (S2r sr)
  | Opcode.P2R -> need ~srcs:0 ~dst:true P2r
  | Opcode.R2P -> need ~srcs:1 ~dst:false R2p
  | Opcode.PSETP l ->
    if i.Instr.pdsts = [] then
      Invalid "Exec: PSETP without predicate destination"
    else need ~srcs:1 ~dst:false (Psetp l)
  | Opcode.LD (Opcode.Global, Opcode.W64) ->
    if not pair_ok then Invalid "Exec: LD.64 needs a register pair"
    else need ~srcs:2 ~dst:false Ld_global
  | Opcode.LD (space, _) ->
    (match space with
     | Opcode.Global -> need ~srcs:2 ~dst:true Ld_global
     | Opcode.Shared -> need ~srcs:2 ~dst:true Ld_shared
     | Opcode.Local -> need ~srcs:2 ~dst:true Ld_local
     | Opcode.Param -> need ~srcs:2 ~dst:true Ld_param
     | Opcode.Tex -> need ~srcs:1 ~dst:true Ld_tex)
  | Opcode.ST (space, _) ->
    (match space with
     | Opcode.Global -> need ~srcs:3 ~dst:false St_global
     | Opcode.Shared -> need ~srcs:3 ~dst:false St_shared
     | Opcode.Local -> need ~srcs:3 ~dst:false St_local
     | Opcode.Param | Opcode.Tex -> Fault space)
  | Opcode.ATOM (space, aop, _) | Opcode.RED (space, aop, _) ->
    let ret =
      match i.Instr.op with
      | Opcode.ATOM _ -> true
      | _ -> false
    in
    (match space with
     | Opcode.Global | Opcode.Shared ->
       need
         ~srcs:(if aop = Opcode.A_cas then 4 else 3)
         ~dst:ret
         (Atom { global = space = Opcode.Global; aop; ret })
     | Opcode.Local | Opcode.Param | Opcode.Tex -> Fault space)
  | Opcode.TLD Opcode.W64 ->
    if not pair_ok then Invalid "Exec: TLD.64 needs a register pair"
    else need ~srcs:1 ~dst:false Tld
  | Opcode.TLD _ -> need ~srcs:1 ~dst:true Tld
  | Opcode.MEMBAR | Opcode.NOP -> Nop
  | Opcode.VOTE mode ->
    let to_pred = mode <> Opcode.V_ballot && i.Instr.pdsts <> [] in
    need ~srcs:1 ~dst:(not to_pred) (Vote { mode; to_pred })
  | Opcode.SHFL mode -> need ~srcs:2 ~dst:true (Shfl mode)
  | Opcode.BRA ->
    if i.Instr.target = None then Invalid "Exec: unresolved branch" else Bra
  | Opcode.CAL ->
    if i.Instr.target = None then Invalid "Exec: unresolved call" else Cal
  | Opcode.RET -> Ret
  | Opcode.EXIT -> Exit
  | Opcode.BAR -> Bar
  | Opcode.HCALL id -> Hcall id

let decode_instr ~sink (i : Instr.t) =
  let reg = function
    | Reg.R r -> r
    | Reg.RZ -> sink
  in
  let nth_dst n =
    match List.nth_opt i.Instr.dsts n with
    | Some r -> reg r
    | None -> sink
  in
  let nth_src n =
    match List.nth_opt i.Instr.srcs n with
    | Some s -> operand s
    | None -> Zero
  in
  let width =
    match Opcode.mem_width i.Instr.op with
    | Some w -> w
    | None -> Opcode.W32
  in
  let g = i.Instr.guard in
  { op = i.Instr.op;
    arm = arm_of i;
    cls = Stats.classify i.Instr.op;
    unguarded = Pred.is_always g;
    guard = Pred.index g.Pred.pred;
    guard_neg = g.Pred.negated;
    d0 = nth_dst 0;
    d1 = nth_dst 1;
    p0 =
      (match i.Instr.pdsts with
       | Pred.P p :: _ -> p
       | _ -> -1);
    s0 = nth_src 0;
    s1 = nth_src 1;
    s2 = nth_src 2;
    s3 = nth_src 3;
    width;
    bytes = Opcode.bytes_of_width width;
    target = Option.value i.Instr.target ~default:(-1);
    reconv = Option.value i.Instr.reconv ~default:(-1);
    is_mem = Opcode.is_mem i.Instr.op }

let decode (k : Program.kernel) =
  let nregs = named_regs k in
  { kernel = k;
    code = Array.map (decode_instr ~sink:nregs) k.Program.instrs;
    nregs;
    stride = nregs + 1;
    shardable = shardable_kernel ~nregs k }
