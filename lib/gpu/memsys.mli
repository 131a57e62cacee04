(** The memory system timing model: a per-SM coalescer and L1, a
    partitioned L2 (one equal slice per SM, probed only by its owner),
    and a DRAM latency term. The partitioning removes the only
    cross-SM shared cache state, which is what lets the scheduler run
    SMs on separate domains with bit-identical statistics.

    Addresses arriving here are physical: callers place each address
    space in a disjoint window ({!global_window}, {!local_window},
    {!texture_window}) so lines from different spaces never alias. *)

type t

type result = {
  transactions : int;  (** memory transactions after coalescing *)
  latency : int;  (** cycles until the warp's slowest request returns *)
}

val create : Config.t -> t

val global_window : int
(** Base of the global-space physical window (0). *)

val local_window : int

val texture_window : int

val coalesce : line_bytes:int -> (int * int) list -> int list
(** [coalesce ~line_bytes addr_width_pairs] returns the sorted list of
    unique line addresses touched — the coalescer the paper's memory
    divergence study measures, and the one {!global_access} runs. *)

val global_access :
  t -> sm:int -> stats:Stats.t -> width:int -> int array -> int -> result
(** Coalesced access for one warp: [global_access t ~sm ~stats ~width
    addrs n] covers the physical addresses [addrs.(0 .. n-1)] (one per
    active lane, at most 32), each [width] bytes wide. Updates cache
    and transaction statistics. Uses per-SM scratch (allocation-free
    apart from the result, shard-safe). *)

val contiguous_access :
  t -> sm:int -> stats:Stats.t -> first_phys:int -> last_phys:int ->
  width:int -> result
(** Fast path for accesses known to cover a contiguous physical range
    (per-lane-interleaved local memory at a uniform frame offset):
    equivalent to {!global_access} over that range but without
    materializing per-lane pairs. *)

val shared_access :
  t -> sm:int -> stats:Stats.t -> int array -> int -> result
(** Shared-memory access with 32-bank conflict modeling over the
    per-lane byte addresses [addrs.(0 .. n-1)]. Identical addresses
    broadcast. Uses per-SM scratch (allocation-free, shard-safe). *)

val atomic_access :
  t -> sm:int -> stats:Stats.t -> width:int -> int array -> int -> result
(** Atomics serialize per unique address on top of the transaction
    cost of {!global_access} over the same addresses. *)

val l1_stats : t -> sm:int -> int * int
(** (hits, misses) of one SM's L1 since creation. *)

val l2_stats : t -> int * int
(** (hits, misses) summed over all L2 slices. *)

val invalidate : t -> unit
(** Drops all cache contents (between launches if desired). *)

(** {1 Activity tracing} *)

val set_trace_sink : t -> Trace.Collector.t option -> unit
(** Install (or remove) the device-default collector receiving L1/L2
    probe records; mirrored into every per-SM slot. Pass [Some c] only
    when [c] wants the [Cache] category; the sink emits
    unconditionally. *)

val set_trace_ctx : t -> sm:int -> cycle:int -> warp:int -> unit
(** Stamp the per-SM context attached to subsequent probe records from
    that SM; called by the interpreter before issuing accesses while
    tracing. *)

(** {1 Telemetry} *)

type tm_sink = {
  tm_latency : Telemetry.Hist.t;
      (** observes each coalesced access's latency in cycles *)
  tm_transactions : Telemetry.Hist.t;
      (** observes each coalesced access's transaction count *)
}

val set_telemetry_sink : t -> tm_sink option -> unit
(** Install (or remove) the device-default histograms observing every
    global/local coalesced access ({!global_access} and
    {!contiguous_access}; atomics observe their underlying access
    once); mirrored into every per-SM slot. [None] keeps the
    observation sites on a single-branch fast path. *)

(** {1 Per-SM sink overrides (device sharding)} *)

val override_slot_sinks :
  t -> sm:int -> trace:Trace.Collector.t option ->
  telemetry:tm_sink option -> unit
(** Point one SM's slot at private sinks for the duration of a sharded
    launch; the scheduler merges the private buffers back in [sm_id]
    order and then calls {!restore_slot_sinks}. *)

val restore_slot_sinks : t -> unit
(** Re-mirror the device-default sinks into every slot. *)
