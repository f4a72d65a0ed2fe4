open Import

(** The churn steady-state experiment: drive one arena per trial through
    a long insert/delete/update stream ({!Workload.Churn}) and set the
    settled node population against the blended-transform prediction
    ({!Popan_core.Churn_model}) — the churn analogue of Tables 1–2.

    The theory says the steady-state distribution is the insert-only
    fixed point {e whatever the mix}; the experiment checks that claim
    by simulating several mixes and comparing each against its own
    blended solve. Trials are memoized per (spec, capacity, trial) in
    the artifact store and fan out on the deterministic domain pool, so
    results are byte-identical for every job count; long streams
    checkpoint/resume through {!Popan_store.Checkpoint} v3 records, which
    hold the live points and resume by rebuilding the arena from them. *)

type row = {
  capacity : int;
  insert_fraction : float;  (** the spec's non-update insert share *)
  update_fraction : float;
  theory : Distribution.t;
      (** blended-transform steady state at this mix's effective
          insert fraction *)
  theory_occupancy : float;
  measured : Distribution.t;  (** mean leaf proportions over trials *)
  measured_occupancy : float;  (** mean of per-trial averages *)
  occupancy_stddev : float;  (** across trials *)
  percent_difference : float;
      (** (theory − measured) / theory × 100 — Table 2's column, for
          the churned population *)
  live_mean : float;  (** mean final live population *)
  leaves_mean : float;
  height_mean : float;
  high_water_mean : float;
      (** mean {!Pr_arena.slot_high_water} — the footprint bound; under
          a balanced mix it hugs the peak live population while
          lifetime inserts run far past it *)
  trials : int;
}

(** [effective_insert_fraction spec] maps the spec's op mix onto the
    blended model's [q]: an update is one delete plus one insert, so
    [q = ((1−u)·q_ops + u) / (1 + u)]. *)
val effective_insert_fraction : Workload.Churn.spec -> float

(** [run ?max_depth ?jobs ?checkpoint_every spec ~capacity] simulates
    the spec's trials and aggregates them against the blended
    prediction. [checkpoint_every] (default 0 = off) saves a resumable
    {!Popan_store.Checkpoint} record every that many operations when a
    default store is configured; a rerun resumes from the newest valid
    record and produces byte-identical results. *)
val run :
  ?max_depth:int -> ?jobs:int -> ?checkpoint_every:int ->
  Workload.Churn.spec -> capacity:int -> row

(** [study ?mixes ... ~capacity ()] is {!run} over a list of
    [(insert_fraction, update_fraction)] mixes (default
    [(0.5, 0); (0.5, 0.5); (0.75, 0)] — balanced, update-heavy, and
    growing) sharing one base workload: the steady-state table. *)
val study :
  ?max_depth:int -> ?jobs:int -> ?checkpoint_every:int ->
  ?model:Sampler.point_model -> ?points:int -> ?trials:int -> ?seed:int ->
  ?ops:int -> ?drift_sigma:float -> ?mixes:(float * float) list ->
  capacity:int -> unit -> row list
