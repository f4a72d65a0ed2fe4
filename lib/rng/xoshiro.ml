(* The four state words live unboxed in 32 bytes. A record of mutable
   [int64] fields would hold each word boxed, so every [next] would
   allocate four fresh boxes (21 minor words with its result); reading
   and writing the bytes with the unboxed 64-bit primitives keeps the
   whole update in registers, and only a result returned across a
   module boundary is boxed. Native endianness is fine: the bytes never
   leave the process — {!to_words} / {!of_words} go through int64
   values. *)
type t = Bytes.t

type floats = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

external get : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let of_state s0 s1 s2 s3 =
  let t = Bytes.create 32 in
  set t 0 s0;
  set t 8 s1;
  set t 16 s2;
  set t 24 s3;
  t

let create seed =
  let sm = Splitmix.create seed in
  let s0 = Splitmix.next sm in
  let s1 = Splitmix.next sm in
  let s2 = Splitmix.next sm in
  let s3 = Splitmix.next sm in
  of_state s0 s1 s2 s3

let of_int_seed seed = create (Int64.of_int seed)
let copy = Bytes.copy

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* Inlined into every caller in this module, so [float], [int] and the
   fill loop below keep the result unboxed too. *)
let[@inline] next t =
  let s0 = get t 0 and s1 = get t 8 and s2 = get t 16 and s3 = get t 24 in
  let result = Int64.add (rotl (Int64.add s0 s3) 23) s0 in
  let tmp = Int64.shift_left s1 17 in
  let s2 = Int64.logxor s2 s0 in
  let s3 = Int64.logxor s3 s1 in
  let s1 = Int64.logxor s1 s2 in
  let s0 = Int64.logxor s0 s3 in
  set t 0 s0;
  set t 8 s1;
  set t 16 (Int64.logxor s2 tmp);
  set t 24 (rotl s3 45);
  result

let[@inline] float t =
  Int64.to_float (Int64.shift_right_logical (next t) 11) *. 0x1.0p-53

(* The draw loop lives here, next to the state: the dev profile
   compiles every module [-opaque], so a float returned from another
   module is always boxed, and only a loop in this module stores the
   draws straight into the columns. *)
let fill_pairs t (a : floats) (b : floats) n =
  if n < 0 || n > Bigarray.Array1.dim a || n > Bigarray.Array1.dim b then
    invalid_arg "Xoshiro.fill_pairs: n outside the columns";
  for i = 0 to n - 1 do
    Bigarray.Array1.unsafe_set a i (float t);
    Bigarray.Array1.unsafe_set b i (float t)
  done

let[@inline] masked t m =
  Int64.to_int (Int64.shift_right_logical (next t) 2) land m

let int t bound =
  if bound <= 0 then invalid_arg "Xoshiro.int: bound <= 0";
  (* Rejection sampling on the smallest mask covering [bound], written
     as loops: local recursive closures would allocate per call. *)
  let m = ref 1 in
  while !m < bound - 1 do
    m := (!m lsl 1) lor 1
  done;
  let m = !m in
  let v = ref (masked t m) in
  while !v >= bound do
    v := masked t m
  done;
  !v

let bool t = Int64.compare (next t) 0L < 0

let jump_constants =
  [| 0x180EC6D33CFD0ABAL; 0xD5A61266F0C9392CL; 0xA9582618E03FC9AAL;
     0x39ABDC4529B1661CL |]

let jump t =
  (* Loops, not [Array.iter]: refs captured by a closure would box
     every accumulated word. *)
  let s0 = ref 0L and s1 = ref 0L and s2 = ref 0L and s3 = ref 0L in
  for w = 0 to Array.length jump_constants - 1 do
    let jump_word = jump_constants.(w) in
    for b = 0 to 63 do
      if Int64.logand jump_word (Int64.shift_left 1L b) <> 0L then begin
        s0 := Int64.logxor !s0 (get t 0);
        s1 := Int64.logxor !s1 (get t 8);
        s2 := Int64.logxor !s2 (get t 16);
        s3 := Int64.logxor !s3 (get t 24)
      end;
      ignore (next t)
    done
  done;
  set t 0 !s0;
  set t 8 !s1;
  set t 16 !s2;
  set t 24 !s3

let split t =
  let child = copy t in
  jump t;
  child

let to_words t = [| get t 0; get t 8; get t 16; get t 24 |]

let of_words words =
  if Array.length words <> 4 then
    invalid_arg "Xoshiro.of_words: need exactly 4 state words";
  if Array.for_all (Int64.equal 0L) words then
    invalid_arg "Xoshiro.of_words: all-zero state is invalid";
  of_state words.(0) words.(1) words.(2) words.(3)
