open Import

(** Spatial workload samplers: the data models the paper's experiments
    draw from. Uniform is the main model (Tables 1–4); the Gaussian
    "two standard deviations wide centered in the square" is Table 5 /
    Figure 3; clusters are a harsher non-uniform model used by the
    extension experiments. All samplers produce points strictly inside
    the unit square. *)

type point_model =
  | Uniform  (** independent uniform coordinates *)
  | Gaussian of { sigma : float }
      (** truncated normal per axis, centered at (0.5, 0.5); the paper's
          setting "two standard deviations wide" is [sigma = 0.25] *)
  | Clusters of { centers : Point.t list; sigma : float }
      (** equal-weight mixture of truncated Gaussians *)

(** [paper_gaussian] is [Gaussian { sigma = 0.25 }]: the square spans
    plus/minus two standard deviations from the center. *)
val paper_gaussian : point_model

(** [id model] is a canonical textual identity of [model] (floats in
    lossless hex), used as the workload-spec component of artifact-cache
    keys: equal ids mean identical point streams for the same
    generator. *)
val id : point_model -> string

(** [point rng model] draws one point in the unit square.
    Raises [Invalid_argument] for a nonpositive sigma, an empty cluster
    list, or a cluster center outside the unit square. *)
val point : Xoshiro.t -> point_model -> Point.t

(** [points rng model n] draws [n] points (in stream order).
    Raises [Invalid_argument] when [n < 0]. *)
val points : Xoshiro.t -> point_model -> int -> Point.t list

(** [fill rng model xs ys n] draws [n] points into two columns:
    exactly the points [n] calls of {!point} would return, from the same
    stream positions, with point [i] at [(xs.{i}, ys.{i})], and [rng]
    left where those calls would leave it. Mind the order this pins
    down: {!point} draws a uniform point's y before its x (OCaml
    evaluates [Point.make]'s arguments right to left), so the fill
    stores the first draw of each pair in [ys]. The uniform model
    allocates nothing ({!Xoshiro.fill_pairs}); the others fill point by
    point through {!point}. Raises [Invalid_argument] when [n < 0], a
    column is shorter than [n], or for the model errors of {!point}
    (only when [n > 0]). *)
val fill :
  Xoshiro.t -> point_model -> Xoshiro.floats -> Xoshiro.floats -> int -> unit

(** [point_nd rng ~dim] draws a uniform point in the d-dimensional unit
    cube. Raises [Invalid_argument] when [dim <= 0]. *)
val point_nd : Xoshiro.t -> dim:int -> Point_nd.t

(** [points_nd rng ~dim n] draws [n] uniform d-dimensional points. *)
val points_nd : Xoshiro.t -> dim:int -> int -> Point_nd.t list

type segment_model =
  | Uniform_segments of { mean_length : float }
      (** uniform midpoint, uniform direction, exponential length with the
          given mean, clipped to the unit square *)
  | Edges_of_sites of { sites : int }
      (** a crude road-map model: [sites] uniform sites, each connected to
          its successor in a random tour — produces segments with the
          length mixture of a connected map *)

(** [segment rng model] draws one segment clipped to the unit square. *)
val segment : Xoshiro.t -> segment_model -> Segment.t

(** [segments rng model n] draws [n] segments.
    Raises [Invalid_argument] when [n < 0]. *)
val segments : Xoshiro.t -> segment_model -> int -> Segment.t list
