open Import

(** Aging (paper §IV): larger (older) blocks are better filled, so
    insertions hit high-occupancy nodes more often than their proportion
    suggests, and the naive model over-estimates average occupancy.
    This module provides a quantitative version of the paper's
    qualitative correction: a fixed point in which insertion frequency
    is proportional to [e_i · area_i] instead of [e_i]. The per-depth
    diagnostics behind Table 3 are
    {!Popan_experiments.Depth_profile}'s. *)

(** [area_weights tree] estimates, for each occupancy class
    [0 .. capacity], the mean leaf area of that class relative to the
    overall mean leaf area — the weight vector the aging correction
    needs. Classes with no leaves get weight 1. *)
val area_weights : Popan_trees.Pr_quadtree.t -> Vec.t

(** [mean_area_weights trees] averages {!area_weights} over trials. *)
val mean_area_weights : Popan_trees.Pr_quadtree.t list -> Vec.t

(** [corrected_solve ?criterion transform ~weights] solves the
    aging-corrected fixed point: insertions hit class [i] with frequency
    proportional to [e_i · weights.(i)], and stationarity requires the
    production mix [normalize((e ∘ w) T) = e]. Solved by damped
    fixed-point iteration. Raises [Invalid_argument] on dimension
    mismatch or non-positive weights; [Failure] on non-convergence. *)
val corrected_solve :
  ?criterion:Convergence.criterion -> Transform.t -> weights:Vec.t ->
  Fixed_point.report
