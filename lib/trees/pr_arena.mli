open Import

(** The arena-backed PR quadtree core: the same canonical PR
    decomposition as {!Pr_quadtree} over the unit square, stored as a
    structure of arrays instead of a boxed node graph.

    Nodes are int indices into flat growable arrays — a child-base table
    ([-1] marks a leaf; a non-negative entry is the index of the first
    of four consecutive children), a per-node count, and a per-leaf head
    into an intrusive slot chain. Each point occupies one slot of three
    parallel columns: its two coordinates and the [next] link that
    threads a leaf's slots. The point, key and scratch columns are
    [Bigarray]s ([float64] for coordinates, the word-sized unboxed [int]
    kind for keys and chains — not [int64], whose accessors box), so the
    columns live off the OCaml heap entirely, radix loops compile to
    unboxed loads, and an arena can be {b mmap-backed} ({!backing}) for
    out-of-core builds larger than RAM. There is no per-node boxing and
    no cons cell anywhere on the build path:

    - {b allocation-free inserts}: an insert is an integer walk down the
      child-base table driven by the point's 42-bit fine ordinates —
      one bit of each per level — followed by three column writes.
      Splits redistribute an intrusive chain and bump-allocate four node
      indices. Nothing touches the minor heap except doubling a backing
      column ([make check] asserts the zero-minor-words claim via
      [Gc.minor_words]).
    - {b two build paths}: {!of_points} grows incrementally with O(1)
      statistics (size / leaves / internals / height / occupancy
      histogram maintained per insert, so per-step snapshots are
      free), and every bulk build is one pipeline that sorts the
      Morton keys once: a histogram of the keys' top bits splits the
      top four levels, and one sequential kernel, a top-down MSD radix
      partition of one word per point (a 15-level window of the key
      above a 32-bit slot), two bits per level and four at a time in
      large ranges, sorts each subtree below them and emits it, leaves
      left to right in Z order. Heap and mmap-backed builds run the
      same kernel and store the same entries. A build takes up to
      [2^32 - 1] points. {!bulk_of_columns} (with its wrappers
      {!of_points_bulk} and {!bulk_of_fn}) numbers slots by input rank;
      {!bulk_zordered}, the serving layer's build, lays the same tree
      out with each leaf's slots consecutive, in Z order.
    - {b one integer grid}: the depth limit is at most
      {!Popan_geom.Morton.bits_fine}[ = 42], and down to it the fine
      ordinate bit at level [d] equals the float comparison
      [x >= midpoint] — cell boundaries are dyadic rationals, exactly
      representable, and [floor (x *. 2^42)] is computed without
      rounding — so every build path, churn and every query kernel
      descend on integers the whole way and produce bit-for-bit the
      decomposition {!Pr_quadtree.of_points} produces. Points closer
      than 2^-42 share a leaf at depth 42, over capacity if need be —
      the rule [max_depth] applies at any depth.

    {!freeze} converts a build into a persistent {!Pr_quadtree.t}, the
    reference implementation; the test suite keeps the two qcheck-equal,
    builds and queries alike. There is no way back from a frozen tree,
    and none is needed: the decomposition is a function of the stored
    points, so a checkpoint keeps the points and a resume bulk-builds
    them ({!of_points_bulk}) into the very tree it left. *)

type t

(** Where the arena's point/key columns live. [Heap] allocates ordinary
    Bigarrays. [Mmap { dir }] maps each column from a segment file in a
    private subdirectory of [dir] (created per arena, so arenas never
    collide), letting builds larger than RAM page through the file
    cache; growth remaps the same file in place. A bulk build maps its
    sort scratch there too and deletes it when the sort is done, so a
    built arena keeps only its three point columns on disk. If mapping
    ever fails the arena degrades to heap columns — loudly, via
    [Probe.arena_fallback], never silently. *)
type backing = Heap | Mmap of { dir : string }

(** [create ?max_depth ?reserve ?backing ~capacity ()] is an empty
    arena over the unit square with leaf capacity [capacity] (>= 1) and
    depth limit [max_depth] (default 16; 0 to 42). [reserve] (default 0)
    pre-sizes the point columns so the first [reserve] inserts never
    grow one. [backing] (default {!Heap}) places the columns. Raises
    [Invalid_argument] on a nonpositive capacity, a max_depth outside
    [0 .. 42] or a negative reserve. *)
val create :
  ?max_depth:int -> ?reserve:int -> ?backing:backing -> capacity:int ->
  unit -> t

(** [capacity t] is the leaf capacity. *)
val capacity : t -> int

(** [max_depth t] is the depth limit. *)
val max_depth : t -> int

(** [backing t] is the arena's {e effective} backing: {!Heap} when an
    {!Mmap} request degraded (see {!backing}). *)
val backing : t -> backing

(** [size t] is the number of stored points. O(1). *)
val size : t -> int

(** [is_empty t] is [size t = 0]. *)
val is_empty : t -> bool

(** [insert t p] adds [p], destructively. Duplicate points are stored
    again (multiset semantics). Raises [Invalid_argument] when [p] is
    outside the unit square. Allocation-free except when a backing
    column doubles. *)
val insert : t -> Point.t -> unit

(** [insert_all t ps] inserts every point of [ps] in order. *)
val insert_all : t -> Point.t list -> unit

(** [delete t p] removes one stored occurrence of [p] (multiset
    semantics: duplicates go one at a time) and returns whether a point
    was removed; absent points — including points outside the unit square —
    leave the arena untouched and return [false]. The slot is unlinked
    from its leaf's intrusive chain in O(chain), and every ancestor
    whose subtree population has fallen to at most [capacity] collapses
    back into a leaf — eager merging, which keeps the decomposition
    canonical: after any delete sequence, [freeze t] equals a fresh
    build over the surviving points. Freed slots and node blocks feed
    intrusive free lists that later inserts and splits reuse, so the
    arena footprint is bounded by the live-population high-water mark
    ({!slot_high_water}), not lifetime inserts — and a churn steady
    state is allocation-free: a no-merge delete, like a no-split
    insert, writes zero minor-heap words. *)
val delete : t -> Point.t -> bool

(** [update t p q] is a moving-object step: {!delete} [p] and, when it
    was present, {!insert} [q], returning whether the move happened
    ([p] absent leaves the arena untouched). Raises [Invalid_argument]
    when [q] is outside the unit square (checked before any mutation). *)
val update : t -> Point.t -> Point.t -> bool

(** [slot_high_water t] is the number of point slots ever in use at
    once — the bound on column footprint. Equal to [size t] for an
    arena that never deleted; under churn it tracks peak live
    population while lifetime inserts grow without bound. O(1). *)
val slot_high_water : t -> int

(** [of_points ?max_depth ~capacity ps] builds by successive
    destructive insertion — the same growth history (and the same
    decomposition) as {!Pr_quadtree.of_points}. *)
val of_points : ?max_depth:int -> capacity:int -> Point.t list -> t

(** A float64 point column, as handed to {!bulk_of_columns}'s fill. *)
type column = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

(** [bulk_of_columns ?max_depth ?backing ?reserve ~capacity ~n fill]
    is the in-place bulk build, and the one entry the list- and
    function-fed bulk builders wrap. It creates the arena, calls
    [fill xs ys] once with the arena's own x and y columns (at least
    [n] long), and treats [(xs.{i}, ys.{i})] for [i] in [0 .. n-1] as
    the points, in slot order: the build is {e in place}, point [i]
    keeps slot [i] (slot = input rank; {!bulk_zordered} numbers slots
    in Z order instead). The node tables are first sized for the
    4⌈n/capacity⌉ ids a uniform build fills. One pass then checks each
    point against the unit square, derives its sort key, the Morton
    key's first 15 levels, and histograms the top four tree levels.
    Those levels split on the histogram; a stable scatter groups the
    keys by them, and each group — a subtree below them, or a leaf that
    forms above them — sorts on its own and emits its part of the tree
    as it goes: a top-down MSD radix partition that stops exactly where
    leaves form, splits a range of 1,024 points or more four levels at
    a time (one histogram, the top levels' walk, one stable scatter)
    while those levels lie in its keys' window, and reloads a range's
    keys with the next 15 levels at levels 15 and 30. The sort moves
    one word per point, the window above the slot, between the group's
    slice of one n-entry key column and one scratch column as wide as
    the widest group; both are mapped like the point columns when the
    arena is mmap-backed. Nothing but a handful of handles
    touches the minor heap, so a fill that allocates nothing (such as
    {!Popan_rng.Sampler.fill} on the uniform model) makes the whole
    build O(1) in minor words. The fill must write only slots
    [0 .. n-1] and must not keep the columns.

    The PR decomposition is canonical, so the result equals
    {!of_points} on the same points; insertion history is not
    replayed, which makes this the fast path for build-then-measure
    experiments. A heap-backed and an mmap-backed build of the same
    points are equal entry for entry ({!diff_state}).

    [reserve] (default 0) sizes the point columns for at least that
    many slots, as in {!create}: headroom for inserts to come. Raises
    [Invalid_argument] when [n < 0] or [n >= 2^32], before anything is
    allocated, or when a filled point falls outside the unit square. A
    build that raises — there, in [fill], or
    anywhere else — first releases its arena ({!release}), so an
    mmap-backed build leaves no segment behind. *)
val bulk_of_columns :
  ?max_depth:int -> ?backing:backing -> ?reserve:int -> capacity:int ->
  n:int -> (column -> column -> unit) -> t

(** [of_points_bulk ?max_depth ?backing ?reserve ~capacity ps] is
    {!bulk_of_columns} over the points of [ps], in list order. *)
val of_points_bulk :
  ?max_depth:int -> ?backing:backing -> ?reserve:int -> capacity:int ->
  Point.t list -> t

(** [bulk_of_fn ?max_depth ?backing ~capacity ~n f]
    is {!bulk_of_columns} on the points [f 0 .. f (n-1)], without ever
    materializing them as a list. [f] is called strictly in order
    [0 .. n-1] on the calling domain, so a stateful generator (an RNG
    stream) draws exactly as it would building the list first. Each
    returned point is a heap value, so this path allocates per point;
    a generator that can write columns should use {!bulk_of_columns}.
    Raises [Invalid_argument] when [n < 0] or [n >= 2^32], before [f]
    is called or anything is allocated, or when some [f i] falls
    outside the unit square. *)
val bulk_of_fn :
  ?max_depth:int -> ?backing:backing -> capacity:int -> n:int ->
  (int -> Point.t) -> t

(** [bulk_zordered ?max_depth ?backing ?reserve ~capacity ~n xs ys] is
    the bulk build over the unit square of the points
    [(xs.{i}, ys.{i})], [i] in [0 .. n-1] — columns the caller owns,
    which must not change during the call and which the arena does not
    keep — with its slots in {b Z order}: every leaf's chain is a run of
    consecutive slots [head, head+1, ...], and the runs ascend in
    depth-first order ({!is_zordered}). A leaf's points then share one
    or two cache lines per column, which is what a query's visit pays
    for; this is the serving layer's build.

    The tree, every chain's sequence of points, and so {!freeze},
    {!points} and every query answer equal those of {!bulk_of_columns}
    on the same points in the same order: each leaf's points keep their
    input order in both numberings, only the slots differ. It is the
    same pipeline as {!bulk_of_columns}, in the other numbering: the
    grouping scatter also moves each point to its group, and a
    permutation inside each group then puts it at its Z-order rank —
    two cache-local moves, with no full column allocated beyond the
    sort's. [max_depth], [backing] and [reserve] are as in
    {!bulk_of_columns}, and so is the release of a build that raises.
    Raises [Invalid_argument] when [n < 0], [n >= 2^32], a column is
    shorter than [n], or a point lies outside the unit square. *)
val bulk_zordered :
  ?max_depth:int -> ?backing:backing -> ?reserve:int -> capacity:int ->
  n:int -> column -> column -> t

(** [is_zordered t] is whether [t]'s slots are in Z order: visiting the
    leaves depth first, their chains read slots [0, 1, ..., size t - 1]
    in turn. True of a fresh {!bulk_zordered} build; churn moves points
    into recycled slots and erodes it. O(size + nodes). *)
val is_zordered : t -> bool

(** [bulk_footprint ~capacity ~n] estimates the peak resident bytes of
    a bulk build of [n] points: five 8-byte columns, [40 n] bytes — the
    three point columns, the sort's key column and its scratch column,
    which is as wide as the widest group and so at most [n] entries —
    and a generous bound on the node arrays (8 ids per leaf). Advisory — the CLI sums it over the builds that can run at once
    and checks that against available memory before committing to a
    large sweep. Raises [Invalid_argument] when [capacity < 1] or
    [n < 0]. *)
val bulk_footprint : capacity:int -> n:int -> int

(** [release t] deletes an mmap-backed arena's segment files (no-op for
    heap arenas). Existing mappings stay readable until collected —
    POSIX keeps unlinked files alive while mapped — but the arena must
    not grow afterwards. Idempotent. *)
val release : t -> unit

(** [leaf_count t] is the number of leaf blocks, counting empty ones.
    O(1). *)
val leaf_count : t -> int

(** [internal_count t] is the number of internal (gray) nodes. O(1). *)
val internal_count : t -> int

(** [height t] is the depth of the deepest leaf (0 for a single-leaf
    tree). O(1). *)
val height : t -> int

(** [occupancy_histogram t] counts leaves by occupancy; index [i] is the
    number of leaves holding exactly [i] points, over-capacity leaves at
    the depth limit clamped into the last cell — exactly
    {!Pr_quadtree.occupancy_histogram}, but O(capacity). *)
val occupancy_histogram : t -> int array

(** [average_occupancy t] is [size t / leaf_count t]. O(1). *)
val average_occupancy : t -> float

(** [fold_leaves t ~init ~f] folds [f] over every leaf with its depth,
    block, stored points and their count. Leaves are visited in the
    same child order as {!Pr_quadtree.fold_leaves} (NW, NE, SW, SE).
    The point lists are materialized per leaf; this is an analysis
    path, not a build path. *)
val fold_leaves :
  t -> init:'a ->
  f:('a -> depth:int -> box:Box.t -> points:Point.t list -> count:int -> 'a)
  -> 'a

(** [iter_points t ~f] applies [f] to every stored point. *)
val iter_points : t -> f:(Point.t -> unit) -> unit

(** [points t] lists all stored points (in no specified order). *)
val points : t -> Point.t list

(** {2 Arena-native queries}

    The query kernels walk the structure-of-arrays columns directly —
    no freeze to {!Pr_quadtree} per query — and mutate nothing the
    arena holds, so any number of domains may query one arena
    concurrently; the serving layer fans batched queries out over a
    shared epoch {!snapshot}. Each kernel is differential-tested
    against its {!Pr_quadtree} counterpart.

    {b One traversal per kind.} Count, range, nearest and k-NN each
    have one traversal that tallies the tree nodes it enters; each
    plain entry point and its [_visited] twin run that same walk, so
    [count_in_box t b = fst (count_in_box_visited t b)], and likewise
    for [query_box], [nearest] and [k_nearest]. A node entered counts
    one: a pruned subtree — disjoint or contained — costs exactly its
    root. That count is the observable for the partial-match cost
    analysis: on a full-height strip query it grows as √n times a
    log-periodic factor, because a PR quadtree is a trie
    (Curien–Joseph's n^0.562 belongs to the point quadtree). The
    serving layer records it into the stable [serve.visited.*]
    sketches.

    {b Containment pruning.} Every node carries its exact subtree
    population, so a node whose cell the target box fully contains is
    answered wholesale — {!count_in_box} adds the stored count in O(1),
    {!query_box} drains the subtree's chains with no per-point test.
    Cost tracks the visited-node frontier, not the answer's population.
    Soundness rests on cells being half-open on their high edges,
    exactly {!Box.contains}'s convention.

    {b Integer cell descent.} Every cell is a dyadic square of the
    2^-42 grid, so the kernels descend on integer cell corners and
    compare the exact corner floats {!Pr_quadtree}'s walks compare — no
    box record per visited node; a plain count allocates zero minor
    words, and a [_visited] one only its result pair. {!cell_at} and
    {!mem} descend on the point's fine ordinates, as an insert does,
    and {!cell_at} builds one box, the leaf's. *)

(** [query_box t b] lists the stored points inside [b] (half-open, as
    {!Box.contains}), in no specified but deterministic order —
    identical, element for element, to {!Pr_quadtree.query_box} over
    {!freeze}[ t]. Subtrees whose cells miss [b] are pruned; subtrees
    whose cells [b] contains are drained without per-point tests. *)
val query_box : t -> Box.t -> Point.t list

(** [count_in_box t b] is [List.length (query_box t b)] without
    materializing the points; boxes containing whole subtree cells are
    answered from the stored per-node counts in O(frontier). Allocates
    nothing on the integer descent. *)
val count_in_box : t -> Box.t -> int

(** [nearest t p] is a stored point at minimal Euclidean distance from
    [p] (ties arbitrary), or [None] when empty. Children are visited
    closest-first under the same clamp-distance bound as
    {!Pr_quadtree.nearest}; the child ranking packs into one int — no
    per-node scratch arrays. *)
val nearest : t -> Point.t -> Point.t option

(** [k_nearest t k p] is up to [k] stored points closest to [p],
    nearest first — exactly {!Pr_quadtree.k_nearest} over {!freeze}[ t],
    ties included: both walks offer the same points in the same order,
    and the arena keeps its best [k] in flat float arrays that take
    {!Pqueue.Neighbors}' heap steps. Nothing is allocated per candidate;
    the collector grows with the points offered, not with [k]. Raises
    [Invalid_argument] if [k < 0]. *)
val k_nearest : t -> int -> Point.t -> Point.t list

(** [cell_at t p] is the leaf cell containing [p]: its depth, its
    block, and the points stored in it — the arena analog of
    {!Pr_quadtree.leaf_at}. Raises [Invalid_argument] when [p] is
    outside the unit square. *)
val cell_at : t -> Point.t -> int * Box.t * Point.t list

(** [mem t p] is whether some stored point equals [p] exactly. *)
val mem : t -> Point.t -> bool

(** {2 Visit tallies}

    Each [_visited] entry point returns its plain twin's answer paired
    with the number of tree nodes the walk entered. The count and range
    entries also add the subtrees they pruned to the
    [serve.pruned.subtrees] counter; the plain entries report nothing. *)

val count_in_box_visited : t -> Box.t -> int * int
val query_box_visited : t -> Box.t -> Point.t list * int
val nearest_visited : t -> Point.t -> Point.t option * int

(** Raises [Invalid_argument] if [k < 0]. *)
val k_nearest_visited : t -> int -> Point.t -> Point.t list * int

(** [cell_at_visited t p] is [cell_at t p] with its visited count
    [depth + 1] — a point descent enters one node per level. Raises
    [Invalid_argument] when [p] is outside the unit square. *)
val cell_at_visited : t -> Point.t -> (int * Box.t * Point.t list) * int

(** {2 Snapshots}

    The serving layer publishes epochs as arenas the writer no longer
    touches. A snapshot is the one copy it makes: the boot epoch, and a
    fallback when no retired arena can catch up by replaying the churn
    it missed. {!insert}, {!delete} and {!update} are deterministic
    functions of the arena's state and their arguments, so applying the
    same operations to a snapshot and to its source leaves the two
    state-identical ({!diff_state} finds no difference) — which is how
    a retired epoch's arena becomes the next epoch without a copy. *)

(** [snapshot t] is an independent heap-backed deep copy of the arena —
    columns, node tables, free lists and counters — sharing no mutable
    state with [t]: churn may continue on either side without the other
    observing it. O(slot high-water + nodes) Bigarray blits and int
    stores, far cheaper than a bulk build over {!points}[ t] (no sort,
    no per-point cons). The copy keeps [t]'s column capacity, so one
    that replays [t]'s later operations grows its columns exactly when
    [t] grew its own. [t] is only read, so frozen arenas may be copied
    from several domains at once. *)
val snapshot : t -> t

(** [copy_bytes t] is the bytes {!snapshot}[ t] copies: 24 per slot
    below the high-water mark (two coordinates and a link) and 24 per
    node id in use (child, count and head). O(1). *)
val copy_bytes : t -> int

(** [shares_columns a b] is whether [a] and [b] hold a physically equal
    point column or node table — never true of an arena and its copy;
    the epoch store audits that its arenas are disjoint. *)
val shares_columns : t -> t -> bool

(** [diff_state a b] lists how two arenas' stored state differs: every
    column entry below the smaller high-water marks, the counters, the
    histograms and both free-list heads. Empty when [b] is an exact
    copy of [a], or when [b] started as one and has since replayed the
    operations [a] applied. A test oracle for that replay. *)
val diff_state : t -> t -> string list

(** [freeze t] is the persistent tree with exactly [t]'s decomposition
    and contents: [equal_structure (freeze t) (Pr_quadtree.of_points
    ... same points ...)] always holds. O(nodes + points); the result
    shares nothing with the arena, so it stays valid however [t] grows
    afterwards. *)
val freeze : t -> Pr_quadtree.t

(** [check_invariants t] verifies the PR invariants of the frozen view
    plus the arena's own bookkeeping (chain lengths vs counts, counters
    and histogram vs a recount, every point inside its leaf cell) and
    returns the violations found (empty when healthy). *)
val check_invariants : t -> string list
