open Import

(** The generalized PR quadtree (Orenstein 1982; Samet 1984): a regular
    recursive decomposition of a square region in which every leaf block
    holds at most [capacity] points, blocks splitting into four quadrants
    whenever the capacity is exceeded. [capacity = 1] is the simple PR
    quadtree of the paper's Figure 1; general [capacity = m] is the
    structure analyzed throughout Section III.

    The tree is persistent: [insert] and [remove] return new trees and
    share structure with the old one.

    Depth is bounded by [max_depth]; a leaf at maximum depth absorbs
    points beyond its capacity instead of splitting (the paper notes its
    implementation "truncates the tree at that depth" — Table 3 used depth
    9). Leaves, including empty ones, are the node population the paper
    counts. *)

type t

(** [create ?max_depth ?bounds ~capacity ()] is an empty tree over
    [bounds] (default the unit square) with leaf capacity [capacity]
    (>= 1) and depth limit [max_depth] (default 16; >= 0).
    Raises [Invalid_argument] on a nonpositive capacity or negative
    max_depth. *)
val create : ?max_depth:int -> ?bounds:Box.t -> capacity:int -> unit -> t

(** [capacity t] is the leaf capacity. *)
val capacity : t -> int

(** [max_depth t] is the depth limit. *)
val max_depth : t -> int

(** [bounds t] is the root block. *)
val bounds : t -> Box.t

(** [size t] is the number of stored points. *)
val size : t -> int

(** [is_empty t] is [size t = 0]. *)
val is_empty : t -> bool

(** [insert t p] adds [p]. Duplicate points are stored again (multiset
    semantics). Raises [Invalid_argument] when [p] is outside the
    bounds. *)
val insert : t -> Point.t -> t

(** [insert_all t ps] folds {!insert} over [ps] in order. *)
val insert_all : t -> Point.t list -> t

(** [of_points ?max_depth ?bounds ~capacity ps] builds a tree from
    scratch by successive insertion — the dynamic history the paper's
    population model describes. *)
val of_points :
  ?max_depth:int -> ?bounds:Box.t -> capacity:int -> Point.t list -> t

(** [mem t p] is true when a point equal to [p] is stored. *)
val mem : t -> Point.t -> bool

(** [remove t p] removes one occurrence of [p], merging blocks back
    together when the removal leaves four sibling leaves whose contents
    fit in one block. Returns [t] unchanged when [p] is absent. *)
val remove : t -> Point.t -> t

(** [points t] lists all stored points (in no specified order). *)
val points : t -> Point.t list

(** [query_box t box] lists the stored points lying inside the half-open
    [box]. *)
val query_box : t -> Box.t -> Point.t list

(** [nearest t p] is the stored point closest to [p] (ties broken
    arbitrarily), or [None] on an empty tree. Branch-and-bound search. *)
val nearest : t -> Point.t -> Point.t option

(** [k_nearest t k p] is up to [k] stored points ordered by increasing
    distance from [p] (branch-and-bound; ties broken arbitrarily).
    Raises [Invalid_argument] when [k < 0]. *)
val k_nearest : t -> int -> Point.t -> Point.t list

(** [nearest_seq t p] enumerates all stored points in increasing
    distance from [p], lazily — the incremental nearest-neighbor
    algorithm of Hjaltason & Samet (a best-first traversal with one
    priority queue of blocks and points). Cost is paid per element
    demanded, so taking a handful of neighbors from a large tree touches
    only a few blocks. The sequence is ephemeral: it consumes internal
    state and must be traversed at most once. *)
val nearest_seq : t -> Point.t -> Point.t Seq.t

(** [count_in_box t box] is [List.length (query_box t box)] without
    materializing the points. *)
val count_in_box : t -> Box.t -> int

(** [leaf_at t p] is the leaf block containing [p] with its depth and
    contents. Raises [Invalid_argument] when [p] is outside the
    bounds. *)
val leaf_at : t -> Point.t -> int * Box.t * Point.t list

type direction = North | South | East | West

(** [neighbors t ~box ~direction] lists the leaf blocks sharing the
    [direction] edge of leaf block [box] (one bigger-or-equal block, or
    several smaller ones); empty at the boundary of the universe.
    [box] must be an actual leaf block of [t] (as produced by
    {!leaf_at} or {!fold_leaves}); raises [Invalid_argument] when it is
    not aligned with the decomposition. *)
val neighbors :
  t -> box:Box.t -> direction:direction -> (int * Box.t * Point.t list) list

(** [iter_points t ~f] applies [f] to every stored point. *)
val iter_points : t -> f:(Point.t -> unit) -> unit

(** [leaf_count t] is the number of leaf blocks, counting empty ones —
    the paper's node population size. *)
val leaf_count : t -> int

(** [internal_count t] is the number of internal (gray) nodes. *)
val internal_count : t -> int

(** [height t] is the depth of the deepest leaf (0 for a single-leaf
    tree). *)
val height : t -> int

(** [fold_leaves t ~init ~f] folds [f] over every leaf with its depth,
    block, and stored points. *)
val fold_leaves :
  t -> init:'a -> f:('a -> depth:int -> box:Box.t -> points:Point.t list -> 'a)
  -> 'a

(** [occupancy_histogram t] counts leaves by occupancy; index [i] is the
    number of leaves holding exactly [i] points. The array has
    [capacity t + 1] cells; over-capacity leaves at the depth limit are
    clamped into the last cell. *)
val occupancy_histogram : t -> int array

(** [average_occupancy t] is [size t / leaf_count t] — the paper's
    summary statistic (Tables 2, 4, 5). *)
val average_occupancy : t -> float

(** [check_invariants t] verifies structural invariants (every point
    inside its leaf block, no splittable leaf above capacity, no
    all-empty internal node, size consistency) and returns the list of
    violations found (empty when healthy). *)
val check_invariants : t -> string list

(** [equal_structure t1 t2] is true when the two trees have identical
    decompositions and identical point multisets in every leaf
    (parameters included) — used to verify that bulk loading and
    insertion order do not change the canonical PR decomposition. *)
val equal_structure : t -> t -> bool

(** [pp_structure ppf t] prints an indented sketch of the decomposition:
    one line per node with its depth, quadrant path and occupancy.
    Intended for debugging and the examples; not a stable format. *)
val pp_structure : Format.formatter -> t -> unit

(** Direct access to the node spine. This exists so {!Pr_arena} can
    freeze a mutable build into a persistent tree without an O(n log n)
    rebuild, and so the artifact codec can store a tree leaf by leaf;
    it is not a stable public API. A tree
    assembled through {!Raw.make} must satisfy the PR invariants
    ({!check_invariants}) — nothing is revalidated here beyond the
    parameter sanity checks. *)
module Raw : sig
  type raw_node =
    | Leaf of Point.t list
    | Node of raw_node array  (** exactly 4, indexed by [Quadrant.to_index] *)

  (** [root t] is the root node of [t]'s spine. *)
  val root : t -> raw_node

  (** [make ~capacity ~max_depth ~bounds ~size ~root] wraps a spine into
      a tree. Raises [Invalid_argument] on nonpositive capacity, negative
      max_depth, or negative size. *)
  val make :
    capacity:int -> max_depth:int -> bounds:Box.t -> size:int ->
    root:raw_node -> t
end
