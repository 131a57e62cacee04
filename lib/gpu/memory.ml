open Sass

(* Paged backing store: fixed-size pages allocated on first write.
   Every page slot starts out pointing at the shared, never-written
   [zero_page], so untouched memory reads as zero without a branch
   and creating a large memory costs one pointer array. *)
let page_bits = 16

let page_size = 1 lsl page_bits

let page_mask = page_size - 1

let zero_page = Bytes.make page_size '\000'

(* Serializes page allocation only: under device sharding several
   domains may take the first write to the same untouched page, and
   one of the two fresh pages (with its write) would be lost. *)
let alloc_lock = Mutex.create ()

type t = {
  pages : Bytes.t array;
  size : int;
  space : Opcode.space;
}

let create ~space n =
  { pages = Array.make (max 1 ((n + page_mask) lsr page_bits)) zero_page;
    size = n;
    space }

let size t = t.size

let space t = t.space

let check t addr bytes =
  if addr < 0 || addr + bytes > t.size then
    raise (Trap.Memory_fault
             { space = t.space; addr; kind = Trap.Out_of_bounds })

(* The last page of a memory is only as long as the memory; bounds
   checks against [size] keep every access inside it. *)
let writable_page t p =
  let pg = Array.unsafe_get t.pages p in
  if pg != zero_page then pg
  else
    Mutex.protect alloc_lock (fun () ->
        let pg = t.pages.(p) in
        if pg != zero_page then pg
        else begin
          let len = min page_size (t.size - (p lsl page_bits)) in
          let pg = Bytes.make len '\000' in
          t.pages.(p) <- pg;
          pg
        end)

let get_byte t addr =
  Char.code
    (Bytes.unsafe_get (Array.unsafe_get t.pages (addr lsr page_bits))
       (addr land page_mask))

(* Little-endian assembly for the rare access that straddles a page. *)
let read_split t addr bytes =
  let v = ref 0 in
  for k = bytes - 1 downto 0 do
    v := (!v lsl 8) lor get_byte t (addr + k)
  done;
  !v

let write_split t addr bytes v =
  for k = 0 to bytes - 1 do
    let a = addr + k in
    Bytes.unsafe_set
      (writable_page t (a lsr page_bits))
      (a land page_mask)
      (Char.unsafe_chr ((v asr (8 * k)) land 0xFF))
  done

let read t ~width addr =
  let bytes = Opcode.bytes_of_width width in
  check t addr bytes;
  let off = addr land page_mask in
  if off + bytes > page_size then read_split t addr bytes
  else
    let pg = Array.unsafe_get t.pages (addr lsr page_bits) in
    match width with
    | Opcode.W8 -> Char.code (Bytes.unsafe_get pg off)
    | Opcode.W16 -> Bytes.get_uint16_le pg off
    | Opcode.W32 -> Int32.to_int (Bytes.get_int32_le pg off) land Value.mask
    | Opcode.W64 -> Int64.to_int (Bytes.get_int64_le pg off)

let write t ~width addr v =
  let bytes = Opcode.bytes_of_width width in
  check t addr bytes;
  let off = addr land page_mask in
  if off + bytes > page_size then write_split t addr bytes v
  else
    let pg = writable_page t (addr lsr page_bits) in
    match width with
    | Opcode.W8 -> Bytes.unsafe_set pg off (Char.unsafe_chr (v land 0xFF))
    | Opcode.W16 -> Bytes.set_uint16_le pg off (v land 0xFFFF)
    | Opcode.W32 ->
      Bytes.set_int32_le pg off
        (Int32.of_int (Value.signed (v land Value.mask)))
    | Opcode.W64 -> Bytes.set_int64_le pg off (Int64.of_int v)

let read_u64 t addr = read t ~width:Opcode.W64 addr

let write_u64 t addr v = write t ~width:Opcode.W64 addr v

(* Visit [pos, pos + len) one page-contained chunk at a time:
   [f page_index page_offset chunk_start chunk_len]. *)
let iter_chunks ~pos ~len f =
  let a = ref pos and stop = pos + len in
  while !a < stop do
    let off = !a land page_mask in
    let n = min (page_size - off) (stop - !a) in
    f (!a lsr page_bits) off (!a - pos) n;
    a := !a + n
  done

let blit_from_bytes t ~dst src =
  let len = Bytes.length src in
  check t dst len;
  iter_chunks ~pos:dst ~len (fun p off k n ->
      Bytes.blit src k (writable_page t p) off n)

let blit_to_bytes t ~src dst =
  let len = Bytes.length dst in
  check t src len;
  iter_chunks ~pos:src ~len (fun p off k n ->
      Bytes.blit t.pages.(p) off dst k n)

let fill t ~pos ~len c =
  check t pos len;
  iter_chunks ~pos ~len (fun p off _ n ->
      (* Zero-filling an untouched page is already done. *)
      if not (c = '\000' && t.pages.(p) == zero_page) then
        Bytes.fill (writable_page t p) off n c)
