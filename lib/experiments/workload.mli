open Import

(** Workload descriptions and deterministic trial streams. Every
    experiment derives its randomness from a master seed split into
    per-trial generators, so the whole evaluation is reproducible and
    individual trials are independent — and, because the split sequence
    is fixed before any trial runs, {!map_trials} may fan the trials out
    across domains without changing a single byte of any result. *)

type t = {
  model : Sampler.point_model;
  points : int;  (** items per trial *)
  trials : int;  (** independent repetitions, paper default 10 *)
  seed : int;
}

(** [make ?model ?points ?trials ?seed ()] builds a workload; defaults
    are the paper's Table 1–2 setting: uniform, 1000 points, 10 trials,
    seed 1987. Raises [Invalid_argument] on nonpositive points/trials. *)
val make :
  ?model:Sampler.point_model -> ?points:int -> ?trials:int -> ?seed:int ->
  unit -> t

(** [trial_rngs w] is one independent generator per trial. *)
val trial_rngs : t -> Xoshiro.t list

(** [points_of_trial w i] is trial [i]'s point list alone — indexed
    access that materializes a single trial. The stream is the one
    {!map_trials} hands to [f i]. Raises [Invalid_argument] when [i] is
    not in [[0, trials)]. *)
val points_of_trial : t -> int -> Point.t list

(** [trial_points w] is the point list of every trial, all materialized
    at once. *)
val trial_points : t -> Point.t list list
[@@deprecated
  "materializes every trial at once; use map_trials (streaming) or \
   points_of_trial (indexed) instead"]

(** [map_trials ?jobs w ~f] applies [f] to each trial's points, with its
    index, and returns the results in trial order. [f] runs once per
    trial across [jobs] domains (default {!Popan_parallel.default_jobs},
    i.e. sequential); it must depend only on its arguments. Results are
    byte-identical for every job count. *)
val map_trials : ?jobs:int -> t -> f:(int -> Point.t list -> 'a) -> 'a list

(** Churn workloads: an initial population followed by a deterministic
    stream of insert / delete / update operations — the moving-object
    regime the arena's {!Popan_trees.Pr_arena.delete} exists for. The
    stream is generated, not recorded: a trial's generator state is the
    per-trial RNG plus the live-point multiset, so a consumer (the churn
    experiment, the smoke oracle, a checkpoint resume) replays exactly
    the same events from [(rng, live, ops_done)] wherever it left
    off. *)
module Churn : sig
  type spec = {
    base : t;  (** initial population [points], [trials], [model], [seed] *)
    ops : int;  (** churn operations per trial, after the initial build *)
    insert_fraction : float;
        (** fraction of non-update operations that insert (the blended
            model's [q]); the rest delete a uniformly chosen live point *)
    update_fraction : float;
        (** fraction of all operations that move a live point:
            delete + reinsert of a {e drifted} copy *)
    drift_sigma : float;
        (** per-axis bound of an update's uniform displacement,
            reflected at the unit-square walls *)
  }

  (** [make ()] defaults: the base workload's defaults, 10000 ops,
      insert_fraction 0.5, update_fraction 0 (pure insert/delete mix),
      drift_sigma 0.01. Raises [Invalid_argument] on negative [ops],
      fractions outside [0, 1], or [drift_sigma] outside [0, 1). *)
  val make :
    ?model:Sampler.point_model -> ?points:int -> ?trials:int -> ?seed:int ->
    ?ops:int -> ?insert_fraction:float -> ?update_fraction:float ->
    ?drift_sigma:float -> unit -> spec

  type event =
    | Insert of Point.t
    | Delete of Point.t  (** a currently live point, chosen uniformly *)
    | Update of Point.t * Point.t  (** [(old, drifted)] — a moving object *)

  (** A trial in flight: the RNG, the live multiset (what a correct tree
      must contain), and how many events have been drawn. Mutable;
      advanced only by {!step}. *)
  type state

  (** [start spec ~rng] samples the initial population from [rng] and
      returns the trial's state at [ops_done = 0]. The consumer builds
      its tree from {!live} and then calls {!step} [spec.ops] times. *)
  val start : spec -> rng:Xoshiro.t -> state

  (** [restore ~rng ~live ~ops_done] resumes mid-stream — the checkpoint
      path. [live] must be the live multiset in generator order (what
      {!live} returned when the state was saved) and [rng] the saved
      generator; the replay is then byte-identical to the uninterrupted
      run. Raises [Invalid_argument] when [ops_done < 0]. *)
  val restore : rng:Xoshiro.t -> live:Point.t array -> ops_done:int -> state

  (** [live s] is the live multiset, in generator order (a copy). *)
  val live : state -> Point.t array

  (** [live_columns s] is the state's own live columns, not a copy:
      point [i] of the live multiset, in generator order, is
      [(xs.{i}, ys.{i})] for [i] below {!live_count}[ s] — what
      {!Popan_trees.Pr_arena.bulk_zordered} reads, without building the
      points {!live} returns. The next {!step} changes them; the caller
      must not write them. *)
  val live_columns : state -> Xoshiro.floats * Xoshiro.floats

  (** [live_count s] is the live population. O(1). *)
  val live_count : state -> int

  (** [ops_done s] counts the events drawn so far. *)
  val ops_done : state -> int

  (** [rng s] is the state's generator (shared, not copied — serialize
      it together with {!live} and {!ops_done} to checkpoint). *)
  val rng : state -> Xoshiro.t

  (** [step spec s] draws the next event and applies it to the live
      multiset. A delete or update drawn against an empty population
      degrades to an insert, so the stream never stalls. *)
  val step : spec -> state -> event

  (** [map_trials ?jobs spec ~f] hands [f] each trial's index and
      pre-split generator, in trial order, across [jobs] domains —
      the churn analogue of {!Workload.map_trials}, byte-identical
      for every job count. *)
  val map_trials : ?jobs:int -> spec -> f:(int -> Xoshiro.t -> 'a) -> 'a list
end
