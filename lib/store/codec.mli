open Import

(** Compact versioned binary codecs for the artifact store.

    A ['a t] pairs a writer (into a growable byte sink) with a reader
    (from a bounds-checked cursor). Codecs compose with the usual combinators;
    every primitive reader validates its input and raises a descriptive
    internal exception that the framing layer converts into a typed
    {!error}, so a truncated or corrupted byte stream is always detected
    rather than misread.

    {b The frame.} An artifact on disk is a framed payload:

    {v
    "PSTO"                      4-byte magic
    container version           varint (currently 1)
    kind                        length-prefixed string, e.g. "trial-occ"
    artifact version            varint (the codec's schema version)
    key                         length-prefixed canonical key string
    payload length              varint
    payload                     <length> bytes written by the codec
    checksum                    8-byte little-endian FNV-1a 64 over
                                everything preceding it
    v}

    Floats are stored as their IEEE-754 bit patterns ([Int64.bits_of_float]),
    so every round-trip is bit-exact — the property the byte-identical
    caching contract rests on.

    {b Reading a word at a time.} The fixed-width readers ({!int64},
    {!float}, {!point}, {!box}, {!raw_box}) make one bounds check per
    8-byte word and load it whole, and {!points} checks its whole
    extent once. The bytes are the format above whichever way they are
    read, and the errors do not depend on where the input ends:
    truncated input fails with ["unexpected end of input"] wherever
    inside a word or an array it stops, and a count beyond the
    remaining input — or read back negative, with its sign bit set —
    with ["array count … exceeds remaining input"] (["list count"],
    ["string length"]). *)

type 'a t

(** {1 Running codecs} *)

(** [encode codec v] is the raw payload bytes of [v] (no frame). *)
val encode : 'a t -> 'a -> string

(** [decode codec s] reads [v] back from raw payload bytes, requiring the
    codec to consume exactly the whole string.
    Raises [Failure] with a descriptive message on malformed input. *)
val decode : 'a t -> string -> 'a

(** {1 Primitives} *)

(** [u8] is a single byte, values 0..255. *)
val u8 : int t

(** [bool] is a byte 0/1; any other value is malformed. *)
val bool : bool t

(** [int] is a zigzag LEB128 varint: small magnitudes are small on disk,
    and the full native int range round-trips (including [min_int]). *)
val int : int t

(** [int64] is a fixed 8-byte little-endian word. *)
val int64 : int64 t

(** [float] is the IEEE-754 bit pattern as an {!int64} — bit-exact,
    NaN and infinities included. *)
val float : float t

(** [string] is a varint length followed by the bytes. *)
val string : string t

(** {1 Combinators} *)

val pair : 'a t -> 'b t -> ('a * 'b) t
val triple : 'a t -> 'b t -> 'c t -> ('a * 'b * 'c) t
val option : 'a t -> 'a option t

(** [list c] is a varint count followed by the elements in order. *)
val list : 'a t -> 'a list t

(** [array c] — array variant of {!list}. *)
val array : 'a t -> 'a array t

(** [int_array] is [array int] (the occupancy-histogram codec). *)
val int_array : int array t

(** [map c ~decode ~encode] transports a codec across an isomorphism —
    the record-codec builder ([decode] after reading, [encode] before
    writing). *)
val map : 'a t -> decode:('a -> 'b) -> encode:('b -> 'a) -> 'b t

(** [map2 a b ~decode ~get1 ~get2] writes exactly the bytes of
    [map (pair a b) ~decode:(fun (x, y) -> decode x y)
    ~encode:(fun v -> (get1 v, get2 v))], but writing projects the two
    fields instead of building a pair, so it allocates nothing — the
    wire's response codecs use it to stay allocation-free. *)
val map2 :
  'a t -> 'b t -> decode:('a -> 'b -> 'c) -> get1:('c -> 'a) ->
  get2:('c -> 'b) -> 'c t

(** [map3] is {!map2} over {!triple}. *)
val map3 :
  'a t -> 'b t -> 'c t -> decode:('a -> 'b -> 'c -> 'd) -> get1:('d -> 'a) ->
  get2:('d -> 'b) -> get3:('d -> 'c) -> 'd t

(** [choice ~tag cases] is the variant-codec builder ({!map} cannot
    express sum types): writing emits [tag v] as one byte followed by
    the matching case codec's payload; reading dispatches on the tag
    byte. Each case codec typically wraps {!map} around one
    constructor. Raises [Invalid_argument] at construction on a tag
    outside 0..255 or a duplicate tag, and at write time when [tag v]
    names no case; an unknown tag on the wire is malformed input. *)
val choice : tag:('a -> int) -> (int * 'a t) list -> 'a t

(** {1 Domain codecs} *)

val point : Point.t t

(** [points] is a point array in exactly the bytes of [array point] —
    a varint count, then each point's two floats — read with one check
    of the count and one of its [16 * n]-byte extent, and written with
    one reservation. The wire's point answers and the checkpoints'
    point arrays use it. *)
val points : Point.t array t

(** [box] is a box's four floats in [xmin, ymin, xmax, ymax] order;
    decoding validates them with {!Box.make}, so a NaN field or an
    empty extent is malformed input. *)
val box : Box.t t

(** [raw_box] is {!box}'s bytes decoded without the validation: the
    four floats become the record's fields as written, NaN or empty
    extent included. It is for a reader that judges the box itself
    (the wire's query boxes). *)
val raw_box : Box.t t

(** [xoshiro] serializes a generator's full 256-bit state; decoding
    restores a generator that continues the exact same stream. *)
val xoshiro : Xoshiro.t t

(** [pr_quadtree] snapshots a persistent PR quadtree: parameters, then
    the node spine (leaves hold their point lists in order). Decoding
    rebuilds the identical structure ({!Pr_quadtree.equal_structure}
    holds across a round-trip, and the float coordinates are
    bit-exact). *)
val pr_quadtree : Pr_quadtree.t t

(** {1 Framing} *)

type error =
  | Bad_magic
  | Bad_container_version of int
  | Bad_kind of { expected : string; found : string }
  | Bad_version of { expected : int; found : int }
  | Bad_key of { expected : string; found : string }
  | Truncated
  | Checksum_mismatch
  | Trailing_garbage
  | Malformed of string

val error_to_string : error -> string

(** [to_artifact ~kind ~version ~key codec v] frames [encode codec v]
    with the header and checksum described above. *)
val to_artifact : kind:string -> version:int -> key:string -> 'a t -> 'a -> string

(** [output_artifact oc ~max ~kind ~version ~key codec v] writes the
    bytes of [to_artifact ~kind ~version ~key codec v], preceded by
    their length as 4 big-endian bytes, to [oc] in one [output] call,
    and returns that length — unless it exceeds [max], in which case
    nothing is written and the length is still returned. It does not
    flush. The frame is built in place in a scratch buffer owned by the
    calling domain and reused across calls: payload, header and
    checksum are written where they go, so a call on a warm scratch
    allocates nothing for codecs that allocate nothing themselves
    (such as the wire's). A scratch grown past 1 MiB by a large frame
    is dropped after that frame, so a domain keeps at most that much. *)
val output_artifact :
  out_channel -> max:int -> kind:string -> version:int -> key:string ->
  'a t -> 'a -> int

(** [of_artifact ~kind ~version ?key codec s] validates the frame (magic,
    kind, version, checksum, exact payload length) and decodes the
    payload. When [?key] is given the embedded key must match — the
    defense against hash collisions in the content-addressed store. *)
val of_artifact :
  kind:string -> version:int -> ?key:string -> 'a t -> string ->
  ('a, error) result

(** [probe s] validates the frame of [s] — magic, container version,
    checksum, payload length — without decoding the payload, and returns
    the embedded [(kind, version, key)]. This is what [cache verify]
    runs over every entry. *)
val probe : string -> (string * int * string, error) result

(** [fnv1a64 s] is the 64-bit FNV-1a hash of [s] — the store's
    content-address hash, exposed for key hashing and tests. It
    allocates only its result. *)
val fnv1a64 : string -> int64
