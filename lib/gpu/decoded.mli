(** Decoded kernels: the form the interpreter executes.

    A post-transform kernel is decoded once, on its first launch on a
    device, into an array of pre-resolved instruction records:
    register and predicate indices as ints, operands as a small
    variant, the access width, and the dispatch arm {!Exec.step}
    matches on. Per-kernel facts the scheduler needs on every launch
    (the register-file stride, the sharding eligibility) are computed
    here too. The device caches the result keyed on the physical
    kernel, so a SASSI transform, which yields a new kernel, is
    decoded afresh without any invalidation. *)

(** A source operand. *)
type operand =
  | Reg of int  (** GPR index, below {!t.nregs} *)
  | Zero  (** [RZ], or an absent optional operand *)
  | Imm of int  (** 32-bit immediate, already masked *)
  | Param of int  (** byte offset into the constant bank *)
  | Pred of int  (** predicate index ([Sass.Pred.index]; 7 is [PT]) *)

(** The dispatch arm, chosen once per instruction. Memory opcodes are
    split by space so the interpreter dispatches once. *)
type arm =
  | Alu
      (** register arithmetic and moves: [op] applied to [s0], [s1],
          [s2] (as many as it takes) *)
  | Setp  (** [ISETP]/[FSETP]: [op] of [s0], [s1] into [p0] *)
  | Sel
  | S2r of Sass.Opcode.special
  | P2r
  | R2p
  | Psetp of Sass.Opcode.logic
  | Ld_global
  | Ld_shared
  | Ld_local
  | Ld_param
  | Ld_tex
  | St_global
  | St_shared
  | St_local
  | Atom of { global : bool; aop : Sass.Opcode.atom_op; ret : bool }
      (** [ATOM] ([ret]) or [RED] on the global or shared space *)
  | Tld
  | Vote of { mode : Sass.Opcode.vote; to_pred : bool }
      (** [to_pred]: an any/all vote writing [p0] rather than [d0] *)
  | Shfl of Sass.Opcode.shfl
  | Bra
  | Cal
  | Ret
  | Exit
  | Bar
  | Hcall of int
  | Nop  (** also [MEMBAR] *)
  | Fault of Sass.Opcode.space
      (** a store or atomic on a space it cannot address; traps with
          [Invalid_instruction] when executed *)
  | Invalid of string
      (** malformed operands; raises [Invalid_argument] with this
          message when executed *)

type instr = {
  op : Sass.Opcode.t;  (** the source opcode, for records and traces *)
  arm : arm;
  cls : int;  (** {!Stats.classify} of [op] *)
  unguarded : bool;  (** guard is [@PT]: every stack lane executes *)
  guard : int;  (** guard predicate index *)
  guard_neg : bool;
  d0 : int;  (** first GPR destination slot; the sink when absent/[RZ] *)
  d1 : int;  (** second (the high half of a 64-bit load) *)
  p0 : int;  (** predicate destination, -1 when absent or [PT] *)
  s0 : operand;
  s1 : operand;
  s2 : operand;
  s3 : operand;
  width : Sass.Opcode.width;  (** access width; [W32] for non-memory ops *)
  bytes : int;  (** [width] in bytes *)
  target : int;  (** branch/call target, -1 when none *)
  reconv : int;  (** reconvergence PC, -1 when none *)
  is_mem : bool;
}

type t = {
  kernel : Sass.Program.kernel;  (** the kernel this decodes *)
  code : instr array;  (** one record per PC *)
  nregs : int;
      (** GPRs the kernel names (at least 2, and at least its
          [regs_used]); the addressable part of each lane's slots *)
  stride : int;
      (** register slots per lane: [nregs] plus one write sink that
          absorbs writes to [RZ] *)
  shardable : bool;
      (** whether launches may spread SMs over domains: no global
          atomics, SASSI handler calls or [CAL], and no global load
          whose parameter origin a global store shares *)
}

val decode : Sass.Program.kernel -> t
