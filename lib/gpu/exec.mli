(** The SIMT interpreter: executes one warp instruction at a time,
    maintaining the PDOM divergence stack, barrier state, memory
    system timing, and statistics.

    Divergence follows the classic post-dominator stack scheme: a
    divergent conditional branch replaces the top-of-stack entry with
    a continuation entry at the reconvergence PC plus one entry per
    path; an entry pops when its PC reaches its reconvergence PC. *)

val step : State.sm -> State.warp -> unit
(** Executes the instruction at the warp's current PC, from the
    launch's {!Decoded} kernel. Allocates nothing for an ordinary
    instruction; divergent branches, exits and handler calls may. Updates the
    warp's divergence stack, status, ready time, the SM cycle
    bookkeeping, and the launch statistics.

    @raise Trap.Memory_fault on an out-of-bounds or misaligned access.
    @raise Trap.Device_assert if an [HCALL] executes with no handler
    runtime installed. *)

val release_barrier_if_ready : State.block -> unit
(** Releases all warps waiting at the block barrier once every alive
    warp has arrived. Exposed for the scheduler and tests. *)
