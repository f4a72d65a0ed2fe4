open Import

(** The §II statistical sequence, made concrete: the paper defines
    [d_n] as the average state vector over trees of [n] points, and
    reports (via Fagin et al.'s analysis) that the sequence [d_1, d_2,
    ...] has no limit under uniform data — it oscillates forever. This
    experiment measures [d_n] on the log grid and tracks its total
    variation distance to the fixed-point prediction [e]; a sequence
    that converged would drive that distance to a constant, whereas
    phasing keeps it cycling. *)

type row = {
  points : int;
  distribution : Distribution.t;  (** measured [d_n], mean over trials *)
  tv_to_theory : float;  (** total variation from the fixed point [e] *)
  average_occupancy : float;
}

(** [run ?capacity ?max_depth ?sizes ?jobs ~model ~trials ~seed ()]
    measures [d_n] for each grid size (defaults: capacity 8, the
    paper's 64..4096 ladder). (size, trial) builds fan out across
    [jobs] domains; rows are byte-identical for every job count. With a default artifact store set, per-trial histograms
    are memoized as ["trial-hist"] artifacts, so a warm rerun builds no
    trees. *)
val run :
  ?capacity:int -> ?max_depth:int -> ?sizes:int list -> ?jobs:int ->
  model:Sampler.point_model -> trials:int -> seed:int -> unit -> row list

(** [oscillation rows] is the amplitude of the [tv_to_theory] sequence —
    how far the population mix keeps swinging around the fixed point. *)
val oscillation : row list -> float
