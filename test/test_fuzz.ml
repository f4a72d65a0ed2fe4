(* Byte-mutation fuzzer over captured wire frames.

   The wire readers check bounds once per 8-byte word or per point
   array, not once per byte, so a count or an extent the checks miss
   would read past the payload instead of failing on its first short
   byte. This suite captures real request and response payloads —
   batches shaped like the two serving workloads (a hot square, uniform
   anchors), a hostile batch, and the small requests — mutates their
   bytes, re-frames each mutation with a valid checksum (so the payload
   parser is what gets tested, not the FNV check), and requires every
   frame to come back as a value or an [Error]:

   - a request frame through [Wire.read_request], and a decoded request
     through [Server.handle], whose response must encode;
   - a response frame through [Wire.read_response].

   None may raise; a decoder that looped would hang the suite. The
   mutations: flipped bytes, truncation, extension, and a varint count
   (a batch's, a point array's, a string's, a k) overwritten with a
   value that is huge, just past the remaining input, or just past what
   the remaining input can hold at 16 bytes a point.

   [dune runtest] runs a short fixed-seed budget; [make check] passes
   [--budget N] for a longer one (mutations per captured payload). *)

module Point = Popan_geom.Point
module Box = Popan_geom.Box
module Xoshiro = Popan_rng.Xoshiro
module Codec = Popan_store.Codec
module Wire = Popan_serve.Wire
module Server = Popan_serve.Server

let default_budget = 150

(* [--budget N] is ours; everything else goes to alcotest. *)
let budget, argv =
  let rec go budget acc = function
    | "--budget" :: n :: rest -> (
      match int_of_string_opt n with
      | Some b when b > 0 -> go b acc rest
      | _ -> failwith (Printf.sprintf "test_fuzz: bad budget %S" n))
    | a :: rest -> go budget (a :: acc) rest
    | [] -> (budget, Array.of_list (List.rev acc))
  in
  go default_budget [] (Array.to_list Sys.argv)

(* Framing by hand, as the wire documents it: a length prefix, then a
   "PSTO" artifact whose checksum is recomputed over the mutated
   payload. The first test pins this against [Wire.write_request]. *)
let add_uvarint b n =
  let rec go n =
    if n lsr 7 = 0 then Buffer.add_char b (Char.chr n)
    else begin
      Buffer.add_char b (Char.chr (0x80 lor (n land 0x7f)));
      go (n lsr 7)
    end
  in
  go n

let uvarint n =
  let b = Buffer.create 10 in
  add_uvarint b n;
  Buffer.contents b

let frame ~kind payload =
  let b = Buffer.create (String.length payload + 64) in
  Buffer.add_string b "PSTO";
  add_uvarint b 1;
  add_uvarint b (String.length kind);
  Buffer.add_string b kind;
  add_uvarint b Wire.version;
  add_uvarint b (String.length "serve");
  Buffer.add_string b "serve";
  add_uvarint b (String.length payload);
  Buffer.add_string b payload;
  let sum = Bytes.create 8 in
  Bytes.set_int64_le sum 0 (Codec.fnv1a64 (Buffer.contents b));
  Buffer.add_bytes b sum;
  let body = Buffer.contents b in
  let n = String.length body in
  let prefix = Bytes.create 4 in
  Bytes.set_int32_be prefix 0 (Int32.of_int n);
  Bytes.to_string prefix ^ body

(* Captured payloads, with the offsets of their varint counts. *)

type capture = { name : string; payload : string; counts : int list }

let varint_length v = String.length (Codec.encode Codec.int v)

(* Offsets of a request's counts: the batch's query count, and each
   k-NN query's k. *)
let request_capture name (req : Wire.request) =
  let payload = Codec.encode Wire.request req in
  let counts =
    match req with
    | Wire.Batch qs ->
      let at = ref (1 + String.length (uvarint (Array.length qs))) in
      let ks = ref [] in
      Array.iter
        (fun q ->
          (match q with Wire.Knn _ -> ks := (!at + 1) :: !ks | _ -> ());
          at := !at + String.length (Codec.encode Wire.query q))
        qs;
      1 :: List.rev !ks
    | Wire.Stats | Wire.Quit | Wire.Telemetry -> [ 1 ]
  in
  { name; payload; counts }

(* Offsets of a response's counts: the answer count, and each answer's
   point count or message length. *)
let response_capture name (resp : Wire.response) =
  let payload = Codec.encode Wire.response resp in
  let counts =
    match resp with
    | Wire.Answers { epoch; answers } ->
      let first = 1 + varint_length epoch in
      let at = ref (first + String.length (uvarint (Array.length answers))) in
      let inner = ref [] in
      Array.iter
        (fun a ->
          (match a with
          | Wire.Points _ | Wire.Rejected _ -> inner := (!at + 1) :: !inner
          | Wire.Cell_info (depth, _, _) ->
            inner := (!at + 1 + varint_length depth + 32) :: !inner
          | Wire.Count_of _ -> ());
          at := !at + String.length (Codec.encode Wire.answer a))
        answers;
      first :: List.rev !inner
    | _ -> [ 1 ]
  in
  { name; payload; counts }

let config =
  {
    Server.default_config with
    jobs = Some 1;
    base_points = 4_000;
    churn_ops = 0;
    seed = 41;
  }

let with_server f =
  let t = Server.create config in
  Fun.protect ~finally:(fun () -> Server.shutdown t) (fun () -> f t)

(* Query [i] of a batch anchored in [[lo, hi)^2], the kinds in turn. *)
let anchored rng (lo, hi) i =
  let coord () = lo +. ((hi -. lo) *. Xoshiro.float rng) in
  let point () =
    let x = coord () in
    Point.make x (coord ())
  in
  let box side =
    let x = coord () and y = coord () in
    Box.make ~xmin:x ~ymin:y ~xmax:(x +. side) ~ymax:(y +. side)
  in
  match i mod 5 with
  | 0 -> Wire.Range (box 0.01)
  | 1 -> Wire.Count (box (0.01 +. (0.05 *. Xoshiro.float rng)))
  | 2 -> Wire.Knn (1 + Xoshiro.int rng 16, point ())
  | 3 -> Wire.Nearest (point ())
  | _ -> Wire.Cell (point ())

let raw_box xmin ymin xmax ymax = { Box.xmin; ymin; xmax; ymax }

let hostile_batch =
  let nan = Float.nan and inf = Float.infinity in
  [|
    Wire.Range (raw_box nan 0.1 0.5 0.5);
    Wire.Count (raw_box 0.1 0.1 0.5 inf);
    Wire.Range (raw_box 0.3 0.1 0.3 0.5);
    Wire.Count (raw_box 0.1 0.5 0.4 0.2);
    Wire.Knn (-1, Point.make 0.5 0.5);
    Wire.Knn (0, Point.make 0.5 0.5);
    Wire.Knn (max_int, Point.make 0.25 0.75);
    Wire.Knn (3, Point.make Float.neg_infinity 0.5);
    Wire.Nearest (Point.make nan 0.5);
    Wire.Cell (Point.make 2.0 0.5);
    Wire.Cell (Point.make 0.5 nan);
    Wire.Range (raw_box 0.0 0.0 1.0 1.0);
  |]

let captures t =
  let rng = Xoshiro.of_int_seed 2024 in
  let batch n region = Array.init n (anchored rng region) in
  let requests =
    [
      ("hot batch", Wire.Batch (batch 256 (7.0 /. 16.0, 9.0 /. 16.0)));
      ("uniform batch", Wire.Batch (batch 64 (0.0, 1.0)));
      ("hostile batch", Wire.Batch hostile_batch);
      ("stats", Wire.Stats);
      ("telemetry", Wire.Telemetry);
      ("quit", Wire.Quit);
    ]
  in
  let responses =
    List.filter_map
      (fun (name, req) ->
        match req with
        | Wire.Batch _ -> Some (response_capture name (fst (Server.handle t req)))
        | _ -> None)
      requests
  in
  ( List.map (fun (name, r) -> request_capture name r) requests,
    response_capture "stats" (fst (Server.handle t Wire.Stats)) :: responses )

(* Mutations *)

let splice s at len insert =
  let at = min at (String.length s) in
  let len = min len (String.length s - at) in
  String.sub s 0 at ^ insert
  ^ String.sub s (at + len) (String.length s - at - len)

(* The length of the varint starting at [at]. *)
let varint_at s at =
  let rec go i =
    if i >= String.length s || Char.code s.[i] < 0x80 then i + 1 - at
    else go (i + 1)
  in
  go at

let mutate rng c =
  let s = c.payload in
  let n = String.length s in
  let pick k = Xoshiro.int rng k in
  match pick 4 with
  | 0 ->
    let b = Bytes.of_string s in
    for _ = 0 to pick 4 do
      let i = pick n in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 + pick 255)))
    done;
    (Bytes.to_string b, "flipped bytes")
  | 1 ->
    let at = pick n in
    (String.sub s 0 at, Printf.sprintf "truncated at %d" at)
  | 2 ->
    let extra = String.init (1 + pick 64) (fun _ -> Char.chr (pick 256)) in
    (s ^ extra, Printf.sprintf "extended by %d" (String.length extra))
  | _ ->
    let at = List.nth c.counts (pick (List.length c.counts)) in
    let left = n - at - 1 in
    let value =
      match pick 7 with
      | 0 -> max_int
      | 1 -> -1 (* all 63 bits: a count that reads back negative *)
      | 2 -> 1 lsl (31 + pick 30)
      | 3 -> left + 1 + pick 16
      | 4 -> (left / 16) + 1 + pick 8
      | 5 -> max 0 (left - pick 16)
      | _ -> pick (2 * (left + 1))
    in
    ( splice s at (varint_at s at) (uvarint value),
      Printf.sprintf "count at %d set to %d" at value )

(* Write every mutated frame of one capture to a file, then read them
   back in order: each frame must come back as [Some], and [check]
   judges the value. *)
let run_capture ~kind ~read ~check c =
  let rng = Xoshiro.of_int_seed (Hashtbl.hash (kind, c.name)) in
  let mutations = List.init budget (fun _ -> mutate rng c) in
  let path = Filename.temp_file "popan_fuzz" ".frames" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc ->
          List.iter (fun (m, _) -> output_string oc (frame ~kind m)) mutations);
      In_channel.with_open_bin path (fun ic ->
          List.iter
            (fun (m, what) ->
              let fail fmt =
                Alcotest.failf ("%s (%s, %d payload bytes): " ^^ fmt) c.name what
                  (String.length m)
              in
              match read ic with
              | exception e -> fail "the reader raised %s" (Printexc.to_string e)
              | None -> fail "the frame was lost"
              | Some (Error _) -> ()
              | Some (Ok v) -> (
                match check v with
                | () -> ()
                | exception e ->
                  fail "serving it raised %s" (Printexc.to_string e)))
            mutations))

let tests =
  [
    Alcotest.test_case "a re-framed payload is the frame the wire writes" `Quick
      (fun () ->
        with_server (fun t ->
            let requests, responses = captures t in
            let written write v =
              let path = Filename.temp_file "popan_fuzz" ".frame" in
              Fun.protect
                ~finally:(fun () -> Sys.remove path)
                (fun () ->
                  Out_channel.with_open_bin path (fun oc -> write oc v);
                  In_channel.with_open_bin path In_channel.input_all)
            in
            List.iter
              (fun c ->
                let req = Codec.decode Wire.request c.payload in
                Alcotest.(check string) c.name
                  (written Wire.write_request req)
                  (frame ~kind:Wire.request_kind c.payload))
              requests;
            List.iter
              (fun c ->
                let resp = Codec.decode Wire.response c.payload in
                Alcotest.(check string) c.name
                  (written Wire.write_response resp)
                  (frame ~kind:Wire.response_kind c.payload))
              responses));
    Alcotest.test_case "mutated request frames are served or refused, never raise"
      `Quick (fun () ->
        with_server (fun t ->
            let requests, _ = captures t in
            List.iter
              (run_capture ~kind:Wire.request_kind ~read:Wire.read_request
                 ~check:(fun req ->
                   let resp, _ = Server.handle t req in
                   ignore (Codec.encode Wire.response resp : string)))
              requests));
    Alcotest.test_case "mutated response frames decode or fail, never raise"
      `Quick (fun () ->
        with_server (fun t ->
            let _, responses = captures t in
            List.iter
              (run_capture ~kind:Wire.response_kind ~read:Wire.read_response
                 ~check:(fun resp ->
                   ignore (Codec.encode Wire.response resp : string)))
              responses));
  ]

let () = Alcotest.run ~argv "popan_fuzz" [ ("frames", tests) ]
