open Import

type query =
  | Range of Box.t
  | Count of Box.t
  | Knn of int * Point.t
  | Nearest of Point.t
  | Cell of Point.t

type request = Batch of query array | Stats | Quit | Telemetry

type answer =
  | Points of Point.t array
  | Count_of of int
  | Cell_info of int * Box.t * Point.t array
  | Rejected of string

type telemetry = {
  epoch : int;
  size : int;
  batches : int;
  live_epochs : int;
  metrics_json : string;
  prometheus : string;
  sketches : (string * Sketch.snapshot) array;
  events : string array;
  flight : Flight.entry array;
}

type response =
  | Answers of { epoch : int; answers : answer array }
  | Stats_info of { epoch : int; size : int; batches : int; live_epochs : int }
  | Telemetry_info of telemetry
  | Refused of string
  | Bye

(* Version 2: the [Telemetry] request and its response arm. The version
   sits in every frame's artifact header, so a v1 peer refuses a v2
   frame outright instead of misparsing it. *)
let version = 2
let request_kind = "serve-req"
let response_kind = "serve-resp"

(* One frame key for the whole protocol: the store's framing insists on
   a key (its content-addressing defense); the serving loop has no
   content address, so a fixed key doubles as a protocol marker. *)
let frame_key = "serve"

(* A query box travels as four raw floats ([Codec.raw_box]: [Codec.box]'s
   layout without its validation): a NaN field or an empty extent is one
   query's problem, answered [Rejected] by the server's per-query rule,
   not a reason to refuse the whole frame. *)
let query =
  let open Codec in
  choice
    ~tag:(function
      | Range _ -> 0 | Count _ -> 1 | Knn _ -> 2 | Nearest _ -> 3 | Cell _ -> 4)
    [
      ( 0,
        map raw_box
          ~decode:(fun b -> Range b)
          ~encode:(function Range b -> b | _ -> assert false) );
      ( 1,
        map raw_box
          ~decode:(fun b -> Count b)
          ~encode:(function Count b -> b | _ -> assert false) );
      ( 2,
        map2 int point
          ~decode:(fun k p -> Knn (k, p))
          ~get1:(function Knn (k, _) -> k | _ -> assert false)
          ~get2:(function Knn (_, p) -> p | _ -> assert false) );
      ( 3,
        map point
          ~decode:(fun p -> Nearest p)
          ~encode:(function Nearest p -> p | _ -> assert false) );
      ( 4,
        map point
          ~decode:(fun p -> Cell p)
          ~encode:(function Cell p -> p | _ -> assert false) );
    ]

let request =
  let open Codec in
  choice
    ~tag:(function Batch _ -> 0 | Stats -> 1 | Quit -> 2 | Telemetry -> 3)
    [
      ( 0,
        map (array query)
          ~decode:(fun qs -> Batch qs)
          ~encode:(function Batch qs -> qs | _ -> assert false) );
      (1, map (list u8) ~decode:(fun _ -> Stats) ~encode:(fun _ -> []));
      (2, map (list u8) ~decode:(fun _ -> Quit) ~encode:(fun _ -> []));
      (3, map (list u8) ~decode:(fun _ -> Telemetry) ~encode:(fun _ -> []));
    ]

let answer =
  let open Codec in
  choice
    ~tag:(function
      | Points _ -> 0 | Count_of _ -> 1 | Cell_info _ -> 2 | Rejected _ -> 3)
    [
      ( 0,
        map points
          ~decode:(fun ps -> Points ps)
          ~encode:(function Points ps -> ps | _ -> assert false) );
      ( 1,
        map int
          ~decode:(fun n -> Count_of n)
          ~encode:(function Count_of n -> n | _ -> assert false) );
      ( 2,
        map3 int box points
          ~decode:(fun d b ps -> Cell_info (d, b, ps))
          ~get1:(function Cell_info (d, _, _) -> d | _ -> assert false)
          ~get2:(function Cell_info (_, b, _) -> b | _ -> assert false)
          ~get3:(function Cell_info (_, _, ps) -> ps | _ -> assert false) );
      ( 3,
        map string
          ~decode:(fun m -> Rejected m)
          ~encode:(function Rejected m -> m | _ -> assert false) );
    ]

(* The sketch and flight-entry codecs transport the records verbatim;
   semantic validation (ascending buckets, positive counts) lives in
   [Sketch.of_snapshot], which the displaying client runs. *)
let sketch_snapshot =
  let open Codec in
  map
    (pair
       (triple float float float)
       (pair (pair int float) (array (pair int int))))
    ~decode:(fun ((alpha, min_value, max_value), ((zeros, sum), buckets)) ->
      { Sketch.alpha; min_value; max_value; zeros; sum; buckets })
    ~encode:(fun (s : Sketch.snapshot) ->
      ((s.alpha, s.min_value, s.max_value), ((s.zeros, s.sum), s.buckets)))

let flight_entry =
  let open Codec in
  map
    (pair (triple float int int) (pair (pair int float) (pair int string)))
    ~decode:(fun ((ts, domain, kind), ((epoch, latency), (visited, note))) ->
      { Flight.ts; domain; kind; epoch; latency; visited; note })
    ~encode:(fun (e : Flight.entry) ->
      ((e.ts, e.domain, e.kind), ((e.epoch, e.latency), (e.visited, e.note))))

let telemetry =
  let open Codec in
  map
    (pair
       (pair (pair int int) (pair int int))
       (pair (pair string string)
          (triple
             (array (pair string sketch_snapshot))
             (array string) (array flight_entry))))
    ~decode:(fun
        ( ((epoch, size), (batches, live_epochs)),
          ((metrics_json, prometheus), (sketches, events, flight)) )
      ->
      {
        epoch;
        size;
        batches;
        live_epochs;
        metrics_json;
        prometheus;
        sketches;
        events;
        flight;
      })
    ~encode:(fun t ->
      ( ((t.epoch, t.size), (t.batches, t.live_epochs)),
        ((t.metrics_json, t.prometheus), (t.sketches, t.events, t.flight)) ))

let response =
  let open Codec in
  choice
    ~tag:(function
      | Answers _ -> 0
      | Stats_info _ -> 1
      | Refused _ -> 2
      | Bye -> 3
      | Telemetry_info _ -> 4)
    [
      ( 0,
        map2 int (array answer)
          ~decode:(fun epoch answers -> Answers { epoch; answers })
          ~get1:(function Answers { epoch; _ } -> epoch | _ -> assert false)
          ~get2:(function Answers { answers; _ } -> answers | _ -> assert false) );
      ( 1,
        map
          (pair (pair int int) (pair int int))
          ~decode:(fun ((epoch, size), (batches, live_epochs)) ->
            Stats_info { epoch; size; batches; live_epochs })
          ~encode:(function
            | Stats_info { epoch; size; batches; live_epochs } ->
              ((epoch, size), (batches, live_epochs))
            | _ -> assert false) );
      ( 2,
        map string
          ~decode:(fun m -> Refused m)
          ~encode:(function Refused m -> m | _ -> assert false) );
      (3, map (list u8) ~decode:(fun _ -> Bye) ~encode:(fun _ -> []));
      ( 4,
        map telemetry
          ~decode:(fun t -> Telemetry_info t)
          ~encode:(function Telemetry_info t -> t | _ -> assert false) );
    ]

(* Length-prefixed framing over channels: 4 bytes big-endian, then one
   "PSTO" artifact (versioned, checksummed). The length prefix bounds
   the read; everything inside it is validated by the store's frame
   check, so truncation surfaces as [Truncated] and corruption as
   [Checksum_mismatch] — both read as a malformed request, never as a
   wrong answer. *)

let max_frame = 1 lsl 26 (* 64 MiB: refuse absurd prefixes outright *)

exception Frame_too_large of int

(* The writer holds itself to the reader's limit, so every frame it
   writes is one a peer accepts — and the 4-byte prefix can never
   wrap. The check comes before the first byte: a refused frame leaves
   the stream untouched. The frame is built in the domain's reusable
   scratch ({!Codec.output_artifact}): the same bytes as
   [Codec.to_artifact] behind the length prefix, with no allocation on
   the way. *)
let write_frame oc ~kind codec v =
  let n =
    Codec.output_artifact oc ~max:max_frame ~kind ~version ~key:frame_key
      codec v
  in
  if n > max_frame then raise (Frame_too_large n);
  flush oc

let read_frame ic ~kind codec =
  match input_byte ic with
  | exception End_of_file -> None
  | b0 -> (
    try
      let b1 = input_byte ic in
      let b2 = input_byte ic in
      let b3 = input_byte ic in
      let n = (b0 lsl 24) lor (b1 lsl 16) lor (b2 lsl 8) lor b3 in
      if n > max_frame then
        Some (Error (Printf.sprintf "frame length %d exceeds limit" n))
      else begin
        let s = really_input_string ic n in
        match Codec.of_artifact ~kind ~version ~key:frame_key codec s with
        | Ok v -> Some (Ok v)
        | Error e -> Some (Error (Codec.error_to_string e))
      end
    with End_of_file -> Some (Error "truncated frame"))

let write_request oc r = write_frame oc ~kind:request_kind request r
let read_request ic = read_frame ic ~kind:request_kind request
let write_response oc r = write_frame oc ~kind:response_kind response r
let read_response ic = read_frame ic ~kind:response_kind response
