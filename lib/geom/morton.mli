(** Morton (Z-order) codes: interleave the bits of quantized (x, y)
    coordinates. Used as the hash function for the extendible-hashing
    experiments, because a bit-interleaved key makes directory prefixes
    correspond to quadtree-like blocks — the regular-decomposition setting
    in which the paper's phasing argument applies. *)

(** [bits] is the per-coordinate resolution (21), so a full code fits in
    62 bits of an OCaml [int]. *)
val bits : int

(** [encode p] quantizes a unit-square point to [bits]-bit integers and
    interleaves them (x bits at even positions).
    Raises [Invalid_argument] when [p] is outside the unit square. *)
val encode : Point.t -> int

(** [decode code] recovers the lower-left corner of the quantized cell. *)
val decode : int -> Point.t

(** [encode_clamped p] is {!encode} with the coordinates clamped into
    the unit square instead of rejected — the Z-order cell nearest an
    arbitrary finite anchor. For scheduling keys (the serving layer
    orders batch work by it); never used by the decomposition. *)
val encode_clamped : Point.t -> int

(** [quantize x] is [int_of_float (x *. 2^bits)] — the [bits]-bit cell
    ordinate of a unit-interval coordinate. The multiply is by a power
    of two, hence exact, so for [x] in [[0, 1)] the result is precisely
    [floor (x * 2^bits)]. *)
val quantize : float -> int

(** [interleave x y] interleaves the low [bits] bits of [x] (even
    positions) and [y] (odd positions). *)
val interleave : int -> int -> int

(** [deinterleave code] is the inverse of {!interleave}. *)
val deinterleave : int -> int * int

(** [prefix ~depth code] is the top [depth] bits of the code, i.e. the
    index of the quadtree-like block of side [2^(-depth/2)] containing the
    point. Raises [Invalid_argument] when [depth] is outside
    [0 .. 2*bits]. *)
val prefix : depth:int -> int -> int

(** {1 Fine (two-word) codes}

    42 bits per axis — an 84-bit interleaved code, which does not fit an
    OCaml [int]. It is carried as two words: the {e hi} word is exactly
    {!encode} (the top [bits] bits of each axis, interleaved), the {e lo}
    word interleaves the next [bits] bits. Tree levels [0 .. bits-1]
    are decided by the hi word alone, levels [bits .. 2*bits-1] by the
    lo word. (The arena's bulk sort carries the same bits in 15-level
    windows instead, reloading its keys at each window's end rather
    than comparing 84-bit keys.) *)

(** [bits_fine] is the fine per-coordinate resolution: [2 * bits] = 42. *)
val bits_fine : int

(** [quantize_fine x] is [floor (x *. 2^bits_fine)] for [x] in [[0, 1)]
    — exact, the multiply only shifts the exponent. *)
val quantize_fine : float -> int

(** [encode_fine p] is [(hi, lo)]: [hi = encode p], and [lo] interleaves
    the low [bits] bits of each [bits_fine]-bit ordinate. Raises
    [Invalid_argument] when [p] is outside the unit square. *)
val encode_fine : Point.t -> int * int

(** [decode_fine (hi, lo)] recovers the lower-left corner of the
    [2^-bits_fine] cell containing the encoded point. *)
val decode_fine : int * int -> Point.t

(** [cell_corner ~depth (hi, lo)] is the lower-left corner of the
    depth-[depth] quadtree cell containing the encoded point — a dyadic
    rational [k/2^depth], exactly representable. Raises
    [Invalid_argument] when [depth] is outside [0 .. bits_fine]. *)
val cell_corner : depth:int -> int * int -> Point.t
