open Sass

let mask = 0xFFFFFFFF

let wrap x = x land mask

let signed x = if x land 0x80000000 <> 0 then x - 0x100000000 else x

let of_signed x = x land mask

let add a b = wrap (a + b)

let sub a b = wrap (a - b)

let mul a b = wrap (a * b)

let mad a b c = wrap ((a * b) + c)

let div ~sign a b =
  if b = 0 then mask
  else
    match sign with
    | Opcode.Unsigned -> wrap (a / b)
    | Opcode.Signed ->
      let sa = signed a and sb = signed b in
      (* OCaml division truncates toward zero, matching C/CUDA. *)
      of_signed (sa / sb)

let rem ~sign a b =
  if b = 0 then mask
  else
    match sign with
    | Opcode.Unsigned -> wrap (a mod b)
    | Opcode.Signed -> of_signed (signed a mod signed b)

let min_max ~cmp a b =
  let sa = signed a and sb = signed b in
  match cmp with
  | Opcode.Lt | Opcode.Le -> if sa < sb then a else b
  | Opcode.Gt | Opcode.Ge -> if sa > sb then a else b
  | Opcode.Eq | Opcode.Ne -> invalid_arg "Value.min_max: Eq/Ne"

let shl a n =
  let n = n land 0xFF in
  if n >= 32 then 0 else wrap (a lsl n)

let shr ~sign a n =
  let n = n land 0xFF in
  match sign with
  | Opcode.Unsigned -> if n >= 32 then 0 else a lsr n
  | Opcode.Signed ->
    if n >= 32 then if a land 0x80000000 <> 0 then mask else 0
    else of_signed (signed a asr n)

let logic op a b =
  match op with
  | Opcode.L_and -> a land b
  | Opcode.L_or -> a lor b
  | Opcode.L_xor -> a lxor b
  | Opcode.L_not -> wrap (lnot a)

let brev a =
  let r = ref 0 in
  for i = 0 to 31 do
    if a land (1 lsl i) <> 0 then r := !r lor (1 lsl (31 - i))
  done;
  !r

(* SWAR bit count: constant time, which matters because the
   interpreter counts the active lanes of every instruction. *)
let popc a =
  let a = wrap a in
  let a = a - ((a lsr 1) land 0x55555555) in
  let a = (a land 0x33333333) + ((a lsr 2) land 0x33333333) in
  let a = (a + (a lsr 4)) land 0x0F0F0F0F in
  ((a * 0x01010101) lsr 24) land 0xFF

let flo a =
  let a = wrap a in
  if a = 0 then mask
  else
    let rec go i = if a land (1 lsl i) <> 0 then i else go (i - 1) in
    go 31

let ffs a =
  let a = wrap a in
  if a = 0 then 0
  else
    let rec go i = if a land (1 lsl i) <> 0 then i + 1 else go (i + 1) in
    go 0

let compare_int ~cmp ~sign a b =
  let a = match sign with Opcode.Signed -> signed a | Opcode.Unsigned -> a in
  let b = match sign with Opcode.Signed -> signed b | Opcode.Unsigned -> b in
  match cmp with
  | Opcode.Lt -> a < b
  | Opcode.Le -> a <= b
  | Opcode.Gt -> a > b
  | Opcode.Ge -> a >= b
  | Opcode.Eq -> a = b
  | Opcode.Ne -> a <> b

(* Inlined so that the float stays unboxed in every caller: a boxed
   return would allocate on each float operation of the interpreter.
   [Int32.of_int] keeps the low 32 bits, which is the pattern. *)
let[@inline] f32_of_bits bits = Int32.float_of_bits (Int32.of_int bits)

let[@inline] bits_of_f32 f = Int32.to_int (Int32.bits_of_float f) land mask

let[@inline] round32 f = f32_of_bits (bits_of_f32 f)

let fadd a b = bits_of_f32 (f32_of_bits a +. f32_of_bits b)

let fsub a b = bits_of_f32 (f32_of_bits a -. f32_of_bits b)

let fmul a b = bits_of_f32 (f32_of_bits a *. f32_of_bits b)

let ffma a b c =
  (* Fused: a single rounding at the end, like the hardware FFMA. *)
  bits_of_f32 ((f32_of_bits a *. f32_of_bits b) +. f32_of_bits c)

let fmin_max ~cmp a b =
  let fa = f32_of_bits a and fb = f32_of_bits b in
  match cmp with
  | Sass.Opcode.Lt | Sass.Opcode.Le -> if fa < fb then a else b
  | Sass.Opcode.Gt | Sass.Opcode.Ge -> if fa > fb then a else b
  | Sass.Opcode.Eq | Sass.Opcode.Ne -> invalid_arg "Value.fmin_max: Eq/Ne"

let mufu op a =
  let f = f32_of_bits a in
  let r =
    match op with
    | Opcode.Rcp -> 1.0 /. f
    | Opcode.Sqrt -> sqrt f
    | Opcode.Rsq -> 1.0 /. sqrt f
    | Opcode.Ex2 -> Float.exp2 f
    | Opcode.Lg2 -> Float.log2 f
    | Opcode.Sin -> sin f
    | Opcode.Cos -> cos f
  in
  bits_of_f32 (round32 r)

let compare_f32 ~cmp a b =
  let fa = f32_of_bits a and fb = f32_of_bits b in
  match cmp with
  | Opcode.Lt -> fa < fb
  | Opcode.Le -> fa <= fb
  | Opcode.Gt -> fa > fb
  | Opcode.Ge -> fa >= fb
  | Opcode.Eq -> fa = fb
  | Opcode.Ne -> fa <> fb

let i2f ~sign a =
  let v =
    match sign with
    | Opcode.Signed -> float_of_int (signed a)
    | Opcode.Unsigned -> float_of_int a
  in
  bits_of_f32 v

let f2i ~sign a =
  (* Saturating conversion, clamped in the float domain so that huge
     magnitudes cannot overflow int_of_float. *)
  let f = f32_of_bits a in
  if Float.is_nan f then 0
  else
    match sign with
    | Opcode.Signed ->
      if f >= 2147483647.0 then 0x7FFFFFFF
      else if f <= -2147483648.0 then of_signed (-0x80000000)
      else of_signed (int_of_float (Float.trunc f))
    | Opcode.Unsigned ->
      if f >= 4294967295.0 then mask
      else if f <= 0.0 then 0
      else int_of_float (Float.trunc f)
