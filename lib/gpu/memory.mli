(** Byte-addressed memory with little-endian multi-byte access. Used
    for global memory, shared memory, local (stack) memory, and the
    kernel-parameter constant bank.

    The store is paged: fixed-size pages are allocated on first write
    and untouched pages read as zero, so creating a large memory (the
    64 MiB global space) costs no zeroing. Bounds are those of the
    size given to {!create}, whatever has been touched. *)

type t

val page_size : int
(** Bytes per backing page. *)

val create : space:Sass.Opcode.space -> int -> t
(** Zero-initialized memory of the given size; [space] labels faults. *)

val size : t -> int

val space : t -> Sass.Opcode.space

val read : t -> width:Sass.Opcode.width -> int -> int
(** Little-endian load. [W8]/[W16]/[W32] return the zero-extended
    pattern; [W64] returns the full 64-bit pattern in an OCaml int
    (63-bit overflow is tolerated for counter use).
    @raise Trap.Memory_fault on out-of-bounds access. *)

val write : t -> width:Sass.Opcode.width -> int -> int -> unit

val read_u64 : t -> int -> int

val write_u64 : t -> int -> int -> unit

val blit_from_bytes : t -> dst:int -> Bytes.t -> unit

val blit_to_bytes : t -> src:int -> Bytes.t -> unit

val fill : t -> pos:int -> len:int -> char -> unit
