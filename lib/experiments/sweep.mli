open Import

(** The phasing experiments (Tables 4–5 / Figures 2–3): average node
    occupancy as a function of the number of points, sampled on a
    logarithmic grid so that four steps quadruple the sample. Uniform
    data should oscillate with period 4 in N without damping; Gaussian
    data should damp. *)

type row = {
  points : int;
  nodes : float;  (** mean leaf count over trials *)
  occupancy : float;  (** mean of per-trial average occupancies *)
  occupancy_stddev : float;
}

(** [grid ?steps_per_quadrupling ~lo ~hi ()] is the geometric grid of
    sample sizes from [lo] to [hi] with the given resolution (default 4
    steps per factor of 4, the paper's grid: 64, 90, 128, 181, ...).
    Raises [Invalid_argument] unless [0 < lo <= hi]. *)
val grid : ?steps_per_quadrupling:int -> lo:int -> hi:int -> unit -> int list

(** [run ?capacity ?max_depth ?sizes ?jobs ~model ~trials ~seed ()]
    builds [trials] PR quadtrees at every grid size and reports the
    rows. Defaults: capacity 8, the paper's grid 64..4096, max_depth 16.
    Each (size, trial) pair gets an independent stream, split before any
    tree is built, so the (size, trial) builds fan out across [jobs]
    domains (default {!Popan_parallel.default_jobs}) with byte-identical
    rows for every job count. The pool starts the pairs largest first
    ({!Fan_out.largest_first}: by decreasing size, in pair order among
    equal sizes), so the biggest builds overlap each other instead of
    running alone at the end; {!concurrent_footprint} prices that
    overlap. Each pair keeps its stream, its memo key and its
    {!Popan_obs.Probe.trial} index whatever the order. Every tree is
    built from scratch at its size, as in the paper.

    When {!Popan_store.Artifact_store.default} is set, each (size,
    trial) measurement is memoized as a ["trial-occ"] artifact keyed by
    model, tree parameters, seed and stream index, so a warm rerun
    performs zero tree builds and still emits byte-identical rows.

    Large n: each trial draws straight into the arena's columns with
    {!Sampler.fill} inside {!Pr_arena.bulk_of_columns} (no point is ever
    boxed, and a uniform trial allocates nothing per point), and
    [backing] places the arena columns (e.g. [Pr_arena.Mmap] for builds
    larger than RAM). A heap and an mmap-backed build store the same
    entries, so the rows do not depend on [backing]. *)
val run :
  ?capacity:int -> ?max_depth:int -> ?sizes:int list -> ?jobs:int ->
  ?backing:Pr_arena.backing -> model:Sampler.point_model -> trials:int ->
  seed:int -> unit -> row list

(** [concurrent_footprint ?capacity ?sizes ?jobs ~trials ()] prices the
    builds of {!run} that can be resident at once: the first [jobs]
    (default {!Popan_parallel.default_jobs}) pairs of its largest-first
    order, trials included. It returns their sizes, largest first, and
    the sum of their {!Pr_arena.bulk_footprint}s — the bound a caller
    checks against available memory before a heap-backed sweep. Any
    [jobs] builds that run together are at most these. Raises
    [Invalid_argument] when [trials <= 0]. *)
val concurrent_footprint :
  ?capacity:int -> ?sizes:int list -> ?jobs:int -> trials:int -> unit ->
  int list * int

(** [run_incremental ?capacity ?max_depth ?sizes ~model ~trials ~seed ()]
    is like {!run} but each trial grows a *single* tree through the grid
    sizes, snapshotting the statistics as it passes each one — the
    trajectory of one growing database rather than independent builds.
    Phasing is a property of the growth process, so both variants show
    it; this one makes the "same tree, later" reading literal. Trials
    fan out across [jobs] domains; rows are byte-identical for every
    job count.

    When a default artifact store is set, finished trials are memoized
    as ["trial-grow"] artifacts, and while a trial runs its growth is
    checkpointed every [checkpoint_every] grid sizes (default 4; [0]
    disables checkpointing). A killed run resumes from the newest valid
    checkpoint — frozen tree, stream position and partial snapshots —
    and produces byte-identical rows. *)
val run_incremental :
  ?capacity:int -> ?max_depth:int -> ?sizes:int list -> ?jobs:int ->
  ?checkpoint_every:int ->
  model:Sampler.point_model -> trials:int -> seed:int -> unit -> row list

(** [series rows] converts rows into a {!Phasing.series} for oscillation
    analysis. *)
val series : row list -> Phasing.series
