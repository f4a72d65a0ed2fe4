(** The (size, trial) fan-out of {!Sweep.run} and {!Trajectory.run}:
    one independent build per pair, on a domain pool, largest first. *)

(** [largest_first ~sizes ~trials] lists the pair indices
    [k = i * trials + t] (size [sizes.(i)], trial [t]) by decreasing
    size, stable among equal sizes: the order the pool starts them in.
    Raises [Invalid_argument] when [trials <= 0]. *)
val largest_first : sizes:int array -> trials:int -> int array

(** [run ?jobs ~experiment ~sizes ~trials ~seed f] is the array of
    [f ~k ~n rng] over every pair [k], in pair order, where [n] is the
    pair's size and [rng] its own stream: the [k]-th split of a master
    generator seeded with [seed], every split made before any pair
    runs. The pairs start on [jobs] domains (default
    {!Popan_parallel.default_jobs}) in {!largest_first} order, so the
    biggest builds do not trail at the end; each runs inside
    {!Popan_obs.Probe.trial} with index [k]. The results depend on
    neither the order nor the job count. *)
val run :
  ?jobs:int -> experiment:string -> sizes:int array -> trials:int ->
  seed:int -> (k:int -> n:int -> Popan_rng.Xoshiro.t -> 'a) -> 'a array
