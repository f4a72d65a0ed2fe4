open Import

(** The occupancy-distribution experiments behind Tables 1 and 2: build
    repeated trees, measure the node population by occupancy, and set
    the measurement next to the model's prediction. *)

type measurement = {
  distribution : Distribution.t;  (** mean proportions over trials *)
  average_occupancy : float;  (** mean of per-trial averages *)
  occupancy_stddev : float;  (** across trials *)
  occupancy_ci : float * float;
      (** 95% percentile-bootstrap interval for the mean occupancy
          (equal to the point estimate when there is a single trial) *)
  leaf_count_mean : float;
  trials : int;
}

(** [measure_pr ?max_depth ?jobs workload ~capacity] builds one PR
    quadtree per trial and aggregates. Trials fan out across [jobs]
    domains (default {!Popan_parallel.default_jobs}); the measurement
    is byte-identical for every job count. *)
val measure_pr :
  ?max_depth:int -> ?jobs:int -> Workload.t -> capacity:int -> measurement

(** [measure_bintree ?max_depth ?jobs workload ~capacity] — same for the
    bintree (branching 2). *)
val measure_bintree :
  ?max_depth:int -> ?jobs:int -> Workload.t -> capacity:int -> measurement

(** [measure_md ?max_depth ?jobs ~dim ~points ~trials ~seed ~capacity ()]
    — same for the d-dimensional PR tree on uniform points. *)
val measure_md :
  ?max_depth:int -> ?jobs:int -> dim:int -> points:int -> trials:int ->
  seed:int -> capacity:int -> unit -> measurement

type comparison = {
  capacity : int;
  theory : Distribution.t;
  measured : measurement;
  theory_occupancy : float;
  percent_difference : float;
      (** (theory − measured) / theory × 100; reproduces Table 2's
          "percent difference" column (e.g. 7.2 for capacity 1) *)
}

(** [compare_pr ?max_depth ?jobs workload ~capacity] builds the
    measurement and compares it with the analytic quadtree model. *)
val compare_pr :
  ?max_depth:int -> ?jobs:int -> Workload.t -> capacity:int -> comparison

(** [table1 ?max_depth ?jobs ?capacities workload] is {!compare_pr} for
    each capacity (default 1..8) — the whole of Tables 1 and 2. *)
val table1 :
  ?max_depth:int -> ?jobs:int -> ?capacities:int list -> Workload.t ->
  comparison list
