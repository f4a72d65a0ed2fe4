open Import

(** The serving wire protocol: request/response types, their codecs,
    and length-prefixed channel framing.

    Every frame on the wire is [4 bytes big-endian payload length]
    followed by one "PSTO" artifact ({!Codec.to_artifact}) of kind
    {!request_kind} or {!response_kind} at protocol {!version} — so a
    frame carries the store's magic, versioning and FNV-1a64 checksum.
    A truncated frame reads as [Truncated], a corrupted one as
    [Checksum_mismatch]; both surface as [Error] from {!read_frame},
    never as a silently wrong value. *)

(** One query against an epoch's arena. A query box crosses the wire
    as four raw floats, unvalidated — a NaN field or an empty extent
    decodes as it was sent — so a hostile box costs one answer (the
    server answers it [Rejected]), not the frame. *)
type query =
  | Range of Box.t  (** all points in the (half-open) box *)
  | Count of Box.t  (** their number only *)
  | Knn of int * Point.t  (** the k nearest points, nearest first *)
  | Nearest of Point.t  (** the single nearest point *)
  | Cell of Point.t  (** the leaf cell containing the point *)

type request =
  | Batch of query array  (** answer all, one epoch, task-ordered *)
  | Stats  (** server introspection *)
  | Quit  (** orderly shutdown *)
  | Telemetry  (** the full scrape: metrics, quantiles, recent events *)

(** One query's result, positionally matching the request batch. *)
type answer =
  | Points of Point.t array
      (** [Range]: members; [Knn]: nearest first; [Nearest]: 0 or 1 *)
  | Count_of of int
  | Cell_info of int * Box.t * Point.t array  (** depth, block, contents *)
  | Rejected of string  (** an invalid query (e.g. out-of-bounds cell) *)

(** The [Telemetry] scrape: server identity and counters, both metric
    exports rendered server-side (so a collector needs no popan code),
    the merged serve-path sketch snapshots, the recent event lines, and
    the flight recorder's retained request records. *)
type telemetry = {
  epoch : int;
  size : int;
  batches : int;
  live_epochs : int;
  metrics_json : string;  (** {!Metrics.to_json} at scrape time *)
  prometheus : string;  (** {!Metrics.to_prometheus} at scrape time *)
  sketches : (string * Sketch.snapshot) array;
      (** name-sorted [serve.*] sketches, merged across domains *)
  events : string array;  (** {!Event.recent}, oldest first *)
  flight : Flight.entry array;  (** {!Flight.recent}, oldest first *)
}

type response =
  | Answers of { epoch : int; answers : answer array }
  | Stats_info of { epoch : int; size : int; batches : int; live_epochs : int }
  | Telemetry_info of telemetry
  | Refused of string  (** the request frame was malformed *)
  | Bye  (** acknowledges [Quit] *)

(** Protocol version, embedded in every frame's artifact header — [2]
    since the [Telemetry] exchange was added. A v1 peer refuses a v2
    frame on its version check rather than misparsing it. *)
val version : int

val request_kind : string
val response_kind : string

(** The codecs, exposed for tests and custom transports. *)
val query : query Codec.t

val request : request Codec.t
val answer : answer Codec.t
val telemetry : telemetry Codec.t
val response : response Codec.t

(** [max_frame] is the largest frame payload either side accepts:
    64 MiB. *)
val max_frame : int

(** Raised by {!write_frame} with the payload's length when it exceeds
    {!max_frame}. *)
exception Frame_too_large of int

(** [write_frame oc ~kind codec v] frames and writes [v], then flushes.
    Raises {!Frame_too_large} — before writing any byte — when the
    framed payload would exceed {!max_frame}, the limit {!read_frame}
    enforces. The frame is built in the calling domain's reusable
    scratch ({!Codec.output_artifact}) and written with one [output]:
    its bytes are exactly the length prefix followed by
    {!Codec.to_artifact}'s, and writing a response, once the scratch is
    warm, allocates nothing. *)
val write_frame : out_channel -> kind:string -> 'a Codec.t -> 'a -> unit

(** [read_frame ic ~kind codec] reads one frame: [None] at a clean EOF
    (no length prefix at all), [Some (Error reason)] on truncation, a
    bad checksum, an over-limit length prefix or an undecodable
    payload, [Some (Ok v)] otherwise. *)
val read_frame :
  in_channel -> kind:string -> 'a Codec.t -> ('a, string) result option

(** The four below are {!write_frame} / {!read_frame} at the request
    and response kinds; the writers raise {!Frame_too_large} likewise. *)

val write_request : out_channel -> request -> unit
val read_request : in_channel -> (request, string) result option
val write_response : out_channel -> response -> unit
val read_response : in_channel -> (response, string) result option
