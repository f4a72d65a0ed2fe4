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
    rows for every job count. Trees are built by insertion from scratch
    at every size, as in the paper.

    When {!Popan_store.Artifact_store.default} is set, each (size,
    trial) measurement is memoized as a ["trial-occ"] artifact keyed by
    model, tree parameters, seed and stream index, so a warm rerun
    performs zero tree builds and still emits byte-identical rows.

    Large-n controls (all invisible to the rows): each trial draws
    straight into the arena's columns with {!Sampler.fill} inside
    {!Pr_arena.bulk_of_columns} (no point is ever boxed, and a uniform
    trial allocates nothing per point), [build_jobs] sorts every
    {e individual} build's groups — the subtrees below its top four
    levels — on a deterministic domain pool (orthogonal to [jobs], which
    fans out whole trials — use [build_jobs] when one tree dwarfs the
    trial count), and [backing] places the arena columns
    (e.g. [Pr_arena.Mmap] for builds larger than RAM). The arena's
    byte-identical parallel contract means the rows are unchanged by any
    of them. *)
val run :
  ?capacity:int -> ?max_depth:int -> ?sizes:int list -> ?jobs:int ->
  ?build_jobs:int -> ?backing:Pr_arena.backing ->
  model:Sampler.point_model -> trials:int -> seed:int -> unit -> row list

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
