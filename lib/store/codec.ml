open Import

(* A cursor over an immutable byte string. Every read bounds-checks;
   [fail] aborts decoding with a message the framing layer surfaces as
   [Malformed]. *)
type cursor = { data : string; mutable pos : int; limit : int }

exception Malformed_input of string

let fail fmt = Printf.ksprintf (fun s -> raise (Malformed_input s)) fmt

(* A growable byte sink, the writers' target. Unlike a [Buffer.t] its
   bytes can be written at any position below the end, which lets a
   frame's header go in front of a payload already written, and it can
   be handed to [output] without a copy. *)
type sink = { mutable buf : Bytes.t; mutable len : int }

let sink n = { buf = Bytes.create n; len = 0 }

let grow s need =
  let cap = ref (max 64 (Bytes.length s.buf)) in
  while !cap < need do
    cap := 2 * !cap
  done;
  let b = Bytes.create !cap in
  Bytes.blit s.buf 0 b 0 s.len;
  s.buf <- b

let[@inline] reserve s n = if s.len + n > Bytes.length s.buf then grow s (s.len + n)

let[@inline] add_char s c =
  reserve s 1;
  Bytes.unsafe_set s.buf s.len c;
  s.len <- s.len + 1

let add_string s str =
  let n = String.length str in
  reserve s n;
  Bytes.blit_string str 0 s.buf s.len n;
  s.len <- s.len + n

(* Inlined, so a float read from a record field reaches the bytes
   without ever being boxed. *)
let[@inline] add_int64 s v =
  reserve s 8;
  Bytes.set_int64_le s.buf s.len v;
  s.len <- s.len + 8

let[@inline] add_float s x = add_int64 s (Int64.bits_of_float x)

type 'a t = {
  write : sink -> 'a -> unit;
  read : cursor -> 'a;
}

let encode c v =
  let s = sink 256 in
  c.write s v;
  Bytes.sub_string s.buf 0 s.len

let decode c s =
  let cur = { data = s; pos = 0; limit = String.length s } in
  match c.read cur with
  | v ->
    if cur.pos <> cur.limit then
      failwith
        (Printf.sprintf "Codec.decode: %d trailing bytes" (cur.limit - cur.pos))
    else v
  | exception Malformed_input msg -> failwith ("Codec.decode: " ^ msg)

(* Primitives *)

let read_byte cur =
  if cur.pos >= cur.limit then fail "unexpected end of input";
  let b = Char.code cur.data.[cur.pos] in
  cur.pos <- cur.pos + 1;
  b

(* Fixed-width reads take a word at a time: one bounds check per 8-byte
   word, then one little-endian load. Inlined, so a float read into a
   record field or a local is never boxed on the way. Truncation fails
   with [read_byte]'s message, wherever in the word the input ends. *)
let[@inline] read_word cur =
  let p = cur.pos in
  if p > cur.limit - 8 then fail "unexpected end of input";
  cur.pos <- p + 8;
  String.get_int64_le cur.data p

let[@inline] read_float cur = Int64.float_of_bits (read_word cur)

let u8 =
  {
    write =
      (fun s n ->
        if n < 0 || n > 255 then invalid_arg "Codec.u8: out of range";
        add_char s (Char.chr n));
    read = read_byte;
  }

let bool =
  {
    write = (fun s b -> add_char s (if b then '\001' else '\000'));
    read =
      (fun cur ->
        match read_byte cur with
        | 0 -> false
        | 1 -> true
        | b -> fail "bad boolean byte %d" b);
  }

(* Unsigned LEB128 over the full 63-bit word (an int with the sign bit
   set is written as the corresponding large unsigned value, which is
   what zigzagged [min_int]-adjacent values produce). A count read back
   with the sign bit set is negative, so the count readers refuse a
   negative one like one past the remaining input. *)
let rec write_uvarint s n =
  if n lsr 7 = 0 then add_char s (Char.chr n)
  else begin
    add_char s (Char.chr (0x80 lor (n land 0x7f)));
    write_uvarint s (n lsr 7)
  end

let rec uvarint_length n = if n lsr 7 = 0 then 1 else 1 + uvarint_length (n lsr 7)

(* A top-level loop over the cursor, not a local closure, so a varint
   read allocates nothing. *)
let rec read_uvarint_from cur shift acc =
  if shift > 62 then fail "varint too long";
  let b = read_byte cur in
  let acc = acc lor ((b land 0x7f) lsl shift) in
  if b land 0x80 = 0 then acc else read_uvarint_from cur (shift + 7) acc

let read_uvarint cur = read_uvarint_from cur 0 0

(* Zigzag: small magnitudes of either sign stay small on disk. *)
let int =
  {
    write = (fun s n -> write_uvarint s ((n lsl 1) lxor (n asr 62)));
    read =
      (fun cur ->
        let z = read_uvarint cur in
        (z lsr 1) lxor (-(z land 1)));
  }

let int64 = { write = add_int64; read = read_word }
let float = { write = add_float; read = read_float }

let string =
  {
    write =
      (fun s str ->
        write_uvarint s (String.length str);
        add_string s str);
    read =
      (fun cur ->
        let n = read_uvarint cur in
        if n < 0 || n > cur.limit - cur.pos then
          fail "string length %d exceeds remaining input" n;
        let s = String.sub cur.data cur.pos n in
        cur.pos <- cur.pos + n;
        s);
  }

(* Combinators *)

let pair a b =
  {
    write =
      (fun s (x, y) ->
        a.write s x;
        b.write s y);
    read =
      (fun cur ->
        let x = a.read cur in
        let y = b.read cur in
        (x, y));
  }

let triple a b c =
  {
    write =
      (fun s (x, y, z) ->
        a.write s x;
        b.write s y;
        c.write s z);
    read =
      (fun cur ->
        let x = a.read cur in
        let y = b.read cur in
        let z = c.read cur in
        (x, y, z));
  }

let option c =
  {
    write =
      (fun s v ->
        match v with
        | None -> add_char s '\000'
        | Some x ->
          add_char s '\001';
          c.write s x);
    read =
      (fun cur ->
        match read_byte cur with
        | 0 -> None
        | 1 -> Some (c.read cur)
        | b -> fail "bad option tag %d" b);
  }

(* Element loops are plain recursion and [for] loops, not [List.iter]
   / [Array.iter] over a partial application, which would allocate a
   closure per container written. *)
let rec write_elements write s = function
  | [] -> ()
  | v :: rest ->
    write s v;
    write_elements write s rest

let list c =
  {
    write =
      (fun s vs ->
        write_uvarint s (List.length vs);
        write_elements c.write s vs);
    read =
      (fun cur ->
        let n = read_uvarint cur in
        if n < 0 || n > cur.limit - cur.pos then
          fail "list count %d exceeds remaining input" n;
        List.init n (fun _ -> c.read cur));
  }

let array c =
  {
    write =
      (fun s vs ->
        write_uvarint s (Array.length vs);
        for i = 0 to Array.length vs - 1 do
          c.write s (Array.unsafe_get vs i)
        done);
    read =
      (fun cur ->
        let n = read_uvarint cur in
        if n < 0 || n > cur.limit - cur.pos then
          fail "array count %d exceeds remaining input" n;
        Array.init n (fun _ -> c.read cur));
  }

let int_array = array int

let map c ~decode:f ~encode:g =
  { write = (fun s v -> c.write s (g v)); read = (fun cur -> f (c.read cur)) }

let map2 a b ~decode ~get1 ~get2 =
  {
    write =
      (fun s v ->
        a.write s (get1 v);
        b.write s (get2 v));
    read =
      (fun cur ->
        let x = a.read cur in
        let y = b.read cur in
        decode x y);
  }

let map3 a b c ~decode ~get1 ~get2 ~get3 =
  {
    write =
      (fun s v ->
        a.write s (get1 v);
        b.write s (get2 v);
        c.write s (get3 v));
    read =
      (fun cur ->
        let x = a.read cur in
        let y = b.read cur in
        let z = c.read cur in
        decode x y z);
  }

(* A tagged union: one byte of case tag, then the selected case's
   payload. [map] cannot express sum types (it needs a total inverse);
   this is the variant-codec builder the wire protocol's request and
   response types are built from. *)
let choice ~tag cases =
  List.iter
    (fun (t, _) ->
      if t < 0 || t > 255 then invalid_arg "Codec.choice: tag out of range";
      if List.length (List.filter (fun (u, _) -> u = t) cases) > 1 then
        invalid_arg (Printf.sprintf "Codec.choice: duplicate tag %d" t))
    cases;
  (* Indexed by tag: a lookup that allocates no option. *)
  let table = Array.make 256 None in
  List.iter (fun (t, c) -> table.(t) <- Some c) cases;
  {
    write =
      (fun s v ->
        let t = tag v in
        match if t < 0 || t > 255 then None else table.(t) with
        | None -> invalid_arg (Printf.sprintf "Codec.choice: unknown tag %d" t)
        | Some c ->
          add_char s (Char.chr t);
          c.write s v);
    read =
      (fun cur ->
        let t = read_byte cur in
        match table.(t) with
        | None -> fail "bad choice tag %d" t
        | Some c -> c.read cur);
  }

(* Domain codecs *)

(* Points are built as record literals, never through [Point.make]: a
   float passed to a function of another module is boxed (each project
   module is compiled separately, so nothing is inlined across them),
   and a literal fills the record's flat fields directly. *)
let[@inline] read_point cur =
  let x = read_float cur in
  let y = read_float cur in
  { Point.x; y }

let[@inline] write_point s (p : Point.t) =
  add_float s p.Point.x;
  add_float s p.Point.y

let point = { write = write_point; read = read_point }

(* [array point]'s bytes, checked and reserved once per array: the
   count against the remaining input (the message [array] gives), the
   [16 * n] extent against it too (the message a short element read
   gives), then [n] unchecked word pairs. The array starts out filled
   with a static point, so a long one is made in the major heap without
   forcing a minor collection first. *)
let no_point = { Point.x = 0.0; y = 0.0 }

let points =
  {
    write =
      (fun s ps ->
        let n = Array.length ps in
        write_uvarint s n;
        reserve s (16 * n);
        for i = 0 to n - 1 do
          let p = Array.unsafe_get ps i in
          Bytes.set_int64_le s.buf s.len (Int64.bits_of_float p.Point.x);
          Bytes.set_int64_le s.buf (s.len + 8) (Int64.bits_of_float p.Point.y);
          s.len <- s.len + 16
        done);
    read =
      (fun cur ->
        let n = read_uvarint cur in
        let left = cur.limit - cur.pos in
        if n < 0 || n > left then fail "array count %d exceeds remaining input" n;
        if 16 * n > left then fail "unexpected end of input";
        if n = 0 then [||]
        else begin
          let ps = Array.make n no_point in
          let data = cur.data and p = cur.pos in
          for i = 0 to n - 1 do
            let o = p + (16 * i) in
            let x = Int64.float_of_bits (String.get_int64_le data o) in
            let y = Int64.float_of_bits (String.get_int64_le data (o + 8)) in
            Array.unsafe_set ps i { Point.x; y }
          done;
          cur.pos <- p + (16 * n);
          ps
        end);
  }

(* A box's four floats in [Box.make]'s field order. [box] validates
   them; [raw_box] takes them as they come. *)
let write_box s (b : Box.t) =
  add_float s b.Box.xmin;
  add_float s b.Box.ymin;
  add_float s b.Box.xmax;
  add_float s b.Box.ymax

let raw_box =
  {
    write = write_box;
    read =
      (fun cur ->
        let xmin = read_float cur in
        let ymin = read_float cur in
        let xmax = read_float cur in
        let ymax = read_float cur in
        { Box.xmin; ymin; xmax; ymax });
  }

let box =
  {
    write = write_box;
    read =
      (fun cur ->
        let xmin = read_float cur in
        let ymin = read_float cur in
        let xmax = read_float cur in
        let ymax = read_float cur in
        match Box.make ~xmin ~ymin ~xmax ~ymax with
        | b -> b
        | exception Invalid_argument msg -> fail "bad box: %s" msg);
  }

let xoshiro =
  {
    write =
      (fun s rng -> Array.iter (add_int64 s) (Xoshiro.to_words rng));
    read =
      (fun cur ->
        let words = Array.init 4 (fun _ -> read_word cur) in
        match Xoshiro.of_words words with
        | rng -> rng
        | exception Invalid_argument msg -> fail "bad rng state: %s" msg);
  }

let pr_quadtree =
  let rec write_node s node =
    match node with
    | Pr_quadtree.Raw.Leaf pts ->
      add_char s '\000';
      (list point).write s pts
    | Pr_quadtree.Raw.Node children ->
      add_char s '\001';
      Array.iter (write_node s) children
  in
  let rec read_node cur =
    match read_byte cur with
    | 0 -> Pr_quadtree.Raw.Leaf ((list point).read cur)
    | 1 -> Pr_quadtree.Raw.Node (Array.init 4 (fun _ -> read_node cur))
    | b -> fail "bad node tag %d" b
  in
  {
    write =
      (fun s tree ->
        int.write s (Pr_quadtree.capacity tree);
        int.write s (Pr_quadtree.max_depth tree);
        box.write s (Pr_quadtree.bounds tree);
        int.write s (Pr_quadtree.size tree);
        write_node s (Pr_quadtree.Raw.root tree));
    read =
      (fun cur ->
        let capacity = int.read cur in
        let max_depth = int.read cur in
        let bounds = box.read cur in
        let size = int.read cur in
        let root = read_node cur in
        match Pr_quadtree.Raw.make ~capacity ~max_depth ~bounds ~size ~root with
        | tree -> tree
        | exception Invalid_argument msg -> fail "bad tree parameters: %s" msg);
  }

(* Framing *)

let magic = "PSTO"
let container_version = 1

(* FNV-1a 64 over [len] bytes of [b] from [off]. A plain loop over a
   local ref: the compiler keeps the running hash unboxed, so only the
   returned value is boxed — and not even that where the call is
   inlined into a comparison or a store. *)
let[@inline] fnv1a64_bytes b off len =
  let h = ref 0xcbf29ce484222325L in
  for i = off to off + len - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (Bytes.unsafe_get b i))))
        0x100000001b3L
  done;
  !h

let fnv1a64 s = fnv1a64_bytes (Bytes.unsafe_of_string s) 0 (String.length s)

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

let error_to_string = function
  | Bad_magic -> "bad magic (not an artifact)"
  | Bad_container_version v -> Printf.sprintf "unknown container version %d" v
  | Bad_kind { expected; found } ->
    Printf.sprintf "kind mismatch: expected %S, found %S" expected found
  | Bad_version { expected; found } ->
    Printf.sprintf "artifact version mismatch: expected %d, found %d" expected
      found
  | Bad_key { expected; found } ->
    Printf.sprintf "key mismatch (hash collision?): expected %S, found %S"
      expected found
  | Truncated -> "truncated artifact"
  | Checksum_mismatch -> "checksum mismatch (corrupted artifact)"
  | Trailing_garbage -> "trailing bytes after checksum"
  | Malformed msg -> "malformed payload: " ^ msg

(* Build the artifact of [v] in [s] after [headroom] free bytes and
   return where it starts; it ends at [s.len]. The payload is written
   first, at the end of room enough for the largest header, and the
   header then right-aligned in front of it, so nothing is copied; the
   checksum goes last, hashed in place. *)
let build_artifact s ~headroom ~kind ~version ~key codec v =
  let header_max =
    String.length magic + 10 + (10 + String.length kind) + 10
    + (10 + String.length key) + 10
  in
  let payload_start = headroom + header_max in
  s.len <- 0;
  reserve s payload_start;
  s.len <- payload_start;
  codec.write s v;
  let payload_end = s.len in
  let payload_len = payload_end - payload_start in
  let header =
    String.length magic
    + uvarint_length container_version
    + uvarint_length (String.length kind) + String.length kind
    + uvarint_length version
    + uvarint_length (String.length key) + String.length key
    + uvarint_length payload_len
  in
  let start = payload_start - header in
  s.len <- start;
  add_string s magic;
  write_uvarint s container_version;
  string.write s kind;
  write_uvarint s version;
  string.write s key;
  write_uvarint s payload_len;
  s.len <- payload_end;
  add_int64 s (fnv1a64_bytes s.buf start (payload_end - start));
  start

let to_artifact ~kind ~version ~key codec v =
  let s = sink 1024 in
  let start = build_artifact s ~headroom:0 ~kind ~version ~key codec v in
  Bytes.sub_string s.buf start (s.len - start)

(* Each domain frames into its own scratch, reused from one frame to
   the next; one grown past [scratch_retain] bytes is dropped once its
   frame is out, so a rare huge frame is a one-off buffer rather than
   memory the domain keeps. *)
let scratch_size = 65536
let scratch_retain = 1 lsl 20
let scratch = Domain.DLS.new_key (fun () -> sink scratch_size)

let trim s =
  if Bytes.length s.buf > scratch_retain then s.buf <- Bytes.create scratch_size

let trim_and_reraise s e =
  let bt = Printexc.get_raw_backtrace () in
  trim s;
  Printexc.raise_with_backtrace e bt

let output_artifact oc ~max ~kind ~version ~key codec v =
  let s = Domain.DLS.get scratch in
  match build_artifact s ~headroom:4 ~kind ~version ~key codec v with
  | exception e -> trim_and_reraise s e
  | start ->
    let n = s.len - start in
    if n <= max then begin
      let b = s.buf and p = start - 4 in
      Bytes.unsafe_set b p (Char.unsafe_chr ((n lsr 24) land 0xff));
      Bytes.unsafe_set b (p + 1) (Char.unsafe_chr ((n lsr 16) land 0xff));
      Bytes.unsafe_set b (p + 2) (Char.unsafe_chr ((n lsr 8) land 0xff));
      Bytes.unsafe_set b (p + 3) (Char.unsafe_chr (n land 0xff));
      match output oc b p (n + 4) with
      | () -> ()
      | exception e -> trim_and_reraise s e
    end;
    trim s;
    n

(* Validate the frame of [s]; on success return (kind, version, key) and
   the payload extent. Shared by [of_artifact] and [probe]. *)
let check_frame s =
  let n = String.length s in
  if n < String.length magic + 8 then Error Truncated
  else if String.sub s 0 (String.length magic) <> magic then Error Bad_magic
  else begin
    (* Hashed in place: the body is the frame less its last 8 bytes. *)
    if
      not
        (Int64.equal
           (String.get_int64_le s (n - 8))
           (fnv1a64_bytes (Bytes.unsafe_of_string s) 0 (n - 8)))
    then Error Checksum_mismatch
    else begin
      let cur = { data = s; pos = String.length magic; limit = n - 8 } in
      match
        let cv = read_uvarint cur in
        let kind = string.read cur in
        let version = read_uvarint cur in
        let key = string.read cur in
        let payload_len = read_uvarint cur in
        (cv, kind, version, key, payload_len, cur.pos)
      with
      | exception Malformed_input _ -> Error Truncated
      | cv, _, _, _, _, _ when cv <> container_version ->
        Error (Bad_container_version cv)
      | _, kind, version, key, payload_len, payload_start ->
        if payload_start + payload_len <> n - 8 then Error Truncated
        else Ok (kind, version, key, payload_start, payload_len)
    end
  end

let probe s =
  match check_frame s with
  | Error e -> Error e
  | Ok (kind, version, key, _, _) -> Ok (kind, version, key)

let of_artifact ~kind ~version ?key codec s =
  match check_frame s with
  | Error e -> Error e
  | Ok (found_kind, found_version, found_key, payload_start, payload_len) ->
    if found_kind <> kind then
      Error (Bad_kind { expected = kind; found = found_kind })
    else if found_version <> version then
      Error (Bad_version { expected = version; found = found_version })
    else begin
      match key with
      | Some expected when expected <> found_key ->
        Error (Bad_key { expected; found = found_key })
      | _ -> (
        let cur =
          { data = s; pos = payload_start; limit = payload_start + payload_len }
        in
        match codec.read cur with
        | v -> if cur.pos <> cur.limit then Error Trailing_garbage else Ok v
        | exception Malformed_input msg -> Error (Malformed msg))
    end
