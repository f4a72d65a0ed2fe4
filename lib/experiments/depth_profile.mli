(** The aging experiment (Table 3): build PR quadtrees with capacity 1
    and max depth 9 (the paper's truncation), and tabulate, per depth,
    the mean number of empty and full leaves and the resulting occupancy.
    Large blocks come first; the occupancy should decay from high values
    toward the post-split asymptote 0.4 and rebound at the truncated
    deepest level. *)

type row = {
  depth : int;
  empty_leaves : float;  (** mean over trials; Table 3's "n0 nodes" *)
  full_leaves : float;  (** mean over trials; Table 3's "n1 nodes" *)
  occupancy : float;  (** full / (empty + full) for capacity 1 *)
}

(** [run ?capacity ?max_depth ?jobs workload] produces the
    per-depth rows (increasing depth). [capacity] defaults to 1 and
    [max_depth] to 9 as in the paper. For capacities above 1,
    [full_leaves] counts leaves at full capacity and [occupancy] is
    points per leaf at that depth. Trials fan out across [jobs] domains
    (default {!Popan_parallel.default_jobs}), each folding its own
    per-depth table; the rows are byte-identical for every job count. *)
val run :
  ?capacity:int -> ?max_depth:int -> ?jobs:int -> Workload.t -> row list

(** [post_split_asymptote ~capacity] is the occupancy a fresh generation
    starts from — {!Pr_model.post_split_occupancy} at branching 4 (0.4
    for capacity 1); the value Table 3's occupancy column decays
    toward. *)
val post_split_asymptote : capacity:int -> float

(** [monotone_prefix rows] is the longest prefix (by count) over which
    occupancy is non-increasing — a scalar summary of the aging trend
    used by tests. *)
val monotone_prefix : row list -> int
