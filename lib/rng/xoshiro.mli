(** xoshiro256++ (Blackman & Vigna 2019): the project's main pseudo-random
    generator. 256 bits of state, period 2^256 − 1, passes BigCrush;
    deterministic per seed so every experiment in the repository is
    reproducible bit-for-bit. State is seeded from {!Splitmix} as the
    authors recommend.

    {b Representation.} The state is 32 bytes read and written with the
    unboxed 64-bit bytes primitives, not a record of boxed [int64]
    fields, so advancing it allocates nothing. A value returned to
    another module is still boxed — the default build compiles every
    module [-opaque], so nothing is inlined across modules: {!next}
    costs 3 minor words there (its [int64]) and {!float} 2 (its float).
    Bulk draws that must allocate nothing go through {!fill_pairs},
    whose loop runs beside the state. Every stream is bit-identical to
    the record representation's, and {!to_words} encodes the same
    words. *)

type t

(** A float64 column, the target of {!fill_pairs}. *)
type floats = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

(** [create seed] seeds the four state words from a SplitMix64 stream
    started at [seed]. *)
val create : int64 -> t

(** [of_int_seed seed] is [create (Int64.of_int seed)]. *)
val of_int_seed : int -> t

(** [copy state] is an independent generator at the same position. *)
val copy : t -> t

(** [next state] advances and returns the next 64-bit value. *)
val next : t -> int64

(** [float state] is uniform in [[0, 1)] from the top 53 bits. *)
val float : t -> float

(** [fill_pairs state a b n] draws [2 * n] values of {!float} in
    stream order and stores them in pairs: draw [2k] in [a.{k}], draw
    [2k + 1] in [b.{k}], for [k] from 0 to [n - 1]. The state ends
    where [2 * n] calls of {!float} leave it, and no minor-heap word is
    allocated. Raises [Invalid_argument] when [n < 0] or a column is
    shorter than [n]. *)
val fill_pairs : t -> floats -> floats -> int -> unit

(** [int state bound] is uniform in [[0, bound)] by rejection (no modulo
    bias). Raises [Invalid_argument] when [bound <= 0]. *)
val int : t -> int -> int

(** [bool state] is a uniform boolean (top bit of {!next}). *)
val bool : t -> bool

(** [jump state] advances [state] by 2^128 steps, for splitting one seed
    into many non-overlapping streams. *)
val jump : t -> unit

(** [split state] is a fresh generator obtained by copying [state] and
    jumping it; the parent is advanced one jump too, so successive splits
    give pairwise non-overlapping streams. *)
val split : t -> t

(** [to_words state] is the full 256-bit state as four words — the
    serializable form used by checkpoint/resume. *)
val to_words : t -> int64 array

(** [of_words words] restores a generator from {!to_words} output; the
    restored generator continues the exact same stream. Raises
    [Invalid_argument] unless given exactly four words that are not all
    zero (the one state xoshiro256++ cannot leave). *)
val of_words : int64 array -> t
