(* The deterministic multicore trial engine, tested in two layers:

   1. the pool itself — indexed reduction, chunk claiming, error
      semantics, batch reuse, shutdown;
   2. cross-domain determinism properties — every experiment rewired
      onto the pool must produce results at 1, 2 and 4 domains that are
      byte-identical to each other and to an inline re-implementation of
      the sequential path. Structures are compared whole with (=), so
      every float must match bitwise; even 1-ulp drift from a reordered
      sum or a moved RNG split fails the property. *)

open Popan_experiments
module Parallel = Popan_parallel
module Distribution = Popan_core.Distribution
module Mc_transform = Popan_core.Mc_transform
module Transform = Popan_core.Transform
module Pr_arena = Popan_trees.Pr_arena
module Pr_quadtree = Popan_trees.Pr_quadtree
module Sampler = Popan_rng.Sampler
module Xoshiro = Popan_rng.Xoshiro
module Stats = Popan_numerics.Stats
module Vec = Popan_numerics.Vec

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let prop ?(count = 25) name gen law =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen law)

(* Job counts exercised by every determinism property. On a single-core
   machine the multi-domain pools still spawn real domains (time-sliced
   by the OS), so schedule independence is genuinely at stake. *)
let job_counts = [ 1; 2; 4 ]

let all_equal = function
  | [] -> true
  | x :: rest -> List.for_all (fun y -> y = x) rest

(* Pool unit tests *)

let pool_tests =
  [
    Alcotest.test_case "map_list is List.init, any job count" `Quick (fun () ->
        List.iter
          (fun jobs ->
            List.iter
              (fun n ->
                Alcotest.(check (list int))
                  (Printf.sprintf "n=%d jobs=%d" n jobs)
                  (List.init n (fun i -> (i * i) + 1))
                  (Parallel.map_list ~jobs n ~f:(fun i -> (i * i) + 1)))
              [ 0; 1; 2; 7; 64; 129 ])
          job_counts);
    Alcotest.test_case "chunked claiming returns in index order" `Quick
      (fun () ->
        List.iter
          (fun chunk ->
            Alcotest.(check (list int))
              (Printf.sprintf "chunk=%d" chunk)
              (List.init 100 Fun.id)
              (Parallel.map_list ~jobs:4 ~chunk 100 ~f:Fun.id))
          [ 1; 3; 16; 1000 ]);
    Alcotest.test_case "pool reuse across batches" `Quick (fun () ->
        Parallel.Pool.with_pool ~jobs:3 (fun pool ->
            check_int "jobs" 3 (Parallel.Pool.jobs pool);
            for round = 1 to 5 do
              Alcotest.(check (list int))
                (Printf.sprintf "round %d" round)
                (List.init 37 (fun i -> i * round))
                (Parallel.Pool.map_list pool 37 ~f:(fun i -> i * round))
            done));
    Alcotest.test_case "iter covers every index exactly once" `Quick (fun () ->
        Parallel.Pool.with_pool ~jobs:4 (fun pool ->
            let hits = Array.make 200 0 in
            Parallel.Pool.iter ~chunk:7 pool 200 ~f:(fun i ->
                hits.(i) <- hits.(i) + 1);
            check_bool "each once" true (Array.for_all (( = ) 1) hits)));
    Alcotest.test_case "lowest failing index wins, any schedule" `Quick
      (fun () ->
        List.iter
          (fun jobs ->
            check_bool
              (Printf.sprintf "jobs=%d" jobs)
              true
              (match
                 Parallel.map_list ~jobs 50 ~f:(fun i ->
                     if i mod 7 = 3 then failwith (string_of_int i) else i)
               with
               | _ -> false
               | exception Failure msg -> msg = "3"))
          job_counts);
    Alcotest.test_case "pool survives a failed batch" `Quick (fun () ->
        Parallel.Pool.with_pool ~jobs:2 (fun pool ->
            check_bool "raises" true
              (match
                 Parallel.Pool.map_list pool 20 ~f:(fun i ->
                     if i = 0 then failwith "poison" else i)
               with
               | _ -> false
               | exception Failure _ -> true);
            Alcotest.(check (list int))
              "pool alive" (List.init 20 Fun.id)
              (Parallel.Pool.map_list pool 20 ~f:Fun.id)));
    Alcotest.test_case "argument validation" `Quick (fun () ->
        check_bool "n < 0" true
          (match Parallel.map_list ~jobs:2 (-1) ~f:Fun.id with
           | _ -> false
           | exception Invalid_argument _ -> true);
        check_bool "chunk < 1" true
          (match Parallel.map_list ~jobs:2 ~chunk:0 4 ~f:Fun.id with
           | _ -> false
           | exception Invalid_argument _ -> true));
    Alcotest.test_case "maps after shutdown degrade to inline" `Quick
      (fun () ->
        let pool = Parallel.Pool.create ~jobs:3 () in
        Parallel.Pool.shutdown pool;
        Parallel.Pool.shutdown pool (* idempotent *);
        Alcotest.(check (list int))
          "still correct" (List.init 10 Fun.id)
          (Parallel.Pool.map_list pool 10 ~f:Fun.id));
    Alcotest.test_case "default jobs: clamp and recommended" `Quick (fun () ->
        let saved = Parallel.default_jobs () in
        Parallel.set_default_jobs 3;
        check_int "set" 3 (Parallel.default_jobs ());
        Parallel.set_default_jobs 0;
        check_int "0 means recommended"
          (Parallel.recommended_jobs ())
          (Parallel.default_jobs ());
        Parallel.set_default_jobs saved);
  ]

(* Inline re-implementations of the pre-pool sequential code paths, kept
   as executable specifications. Both split the master generator with
   explicit loops in the historical order. *)

let split_array master n =
  let rngs = Array.make (max n 1) master in
  for i = 0 to n - 1 do
    rngs.(i) <- Xoshiro.split master
  done;
  rngs

let sweep_reference ~capacity ~max_depth ~sizes ~model ~trials ~seed =
  let master = Xoshiro.of_int_seed seed in
  List.map
    (fun points ->
      let rngs = split_array master trials in
      let measurements =
        List.init trials (fun t ->
            let tree =
              Pr_quadtree.of_points ~max_depth ~capacity
                (Sampler.points rngs.(t) model points)
            in
            ( float_of_int (Pr_quadtree.leaf_count tree),
              Pr_quadtree.average_occupancy tree ))
      in
      {
        Sweep.points;
        nodes = Stats.mean (List.map fst measurements);
        occupancy = Stats.mean (List.map snd measurements);
        occupancy_stddev = Stats.stddev (List.map snd measurements);
      })
    sizes

let map_trials_reference (w : Workload.t) ~f =
  let master = Xoshiro.of_int_seed w.Workload.seed in
  let rngs = split_array master w.Workload.trials in
  List.init w.Workload.trials (fun i ->
      f i (Sampler.points rngs.(i) w.Workload.model w.Workload.points))

(* Flatten a measurement for (=) comparison (Distribution.t is opaque). *)
let measurement_fields (m : Occupancy.measurement) =
  ( Vec.to_list (Distribution.to_vec m.Occupancy.distribution),
    m.Occupancy.average_occupancy,
    m.Occupancy.occupancy_stddev,
    m.Occupancy.occupancy_ci,
    m.Occupancy.leaf_count_mean,
    m.Occupancy.trials )

let model_of_bit gaussian =
  if gaussian then Sampler.Gaussian { sigma = 0.25 } else Sampler.Uniform

let determinism_tests =
  [
    prop "Sweep.run: jobs 1/2/4 byte-identical and equal to sequential spec"
      QCheck2.Gen.(
        quad (int_range 0 10_000) (int_range 1 4) (int_range 1 8) bool)
      (fun (seed, trials, capacity, gaussian) ->
        let sizes = [ 33; 64; 150 ] and model = model_of_bit gaussian in
        let runs =
          List.map
            (fun jobs ->
              Sweep.run ~capacity ~sizes ~jobs ~model ~trials ~seed ())
            job_counts
        in
        all_equal runs
        && List.hd runs
           = sweep_reference ~capacity ~max_depth:16 ~sizes ~model ~trials
               ~seed);
    prop "Sweep.run_incremental: jobs 1/2/4 byte-identical"
      QCheck2.Gen.(triple (int_range 0 10_000) (int_range 1 4) (int_range 1 8))
      (fun (seed, trials, capacity) ->
        all_equal
          (List.map
             (fun jobs ->
               Sweep.run_incremental ~capacity ~sizes:[ 40; 90; 200 ] ~jobs
                 ~model:Sampler.Uniform ~trials ~seed ())
             job_counts));
    prop "Occupancy.measure_pr: jobs 1/2/4 identical measurements"
      QCheck2.Gen.(triple (int_range 0 10_000) (int_range 1 5) (int_range 1 8))
      (fun (seed, trials, capacity) ->
        let w = Workload.make ~points:300 ~trials ~seed () in
        all_equal
          (List.map
             (fun jobs ->
               measurement_fields (Occupancy.measure_pr ~jobs w ~capacity))
             job_counts));
    prop "Occupancy.measure_md: jobs 1/2/4 identical measurements"
      QCheck2.Gen.(pair (int_range 0 10_000) (int_range 1 4))
      (fun (seed, trials) ->
        all_equal
          (List.map
             (fun jobs ->
               measurement_fields
                 (Occupancy.measure_md ~jobs ~dim:3 ~points:200 ~trials ~seed
                    ~capacity:4 ()))
             job_counts));
    prop "Depth_profile.run: jobs 1/2/4 identical rows"
      QCheck2.Gen.(triple (int_range 0 10_000) (int_range 1 5) (int_range 1 3))
      (fun (seed, trials, capacity) ->
        let w = Workload.make ~points:300 ~trials ~seed () in
        all_equal
          (List.map
             (fun jobs ->
               List.map
                 (fun (r : Depth_profile.row) ->
                   ( r.Depth_profile.depth,
                     r.Depth_profile.empty_leaves,
                     r.Depth_profile.full_leaves,
                     r.Depth_profile.occupancy ))
                 (Depth_profile.run ~capacity ~jobs w))
             job_counts));
    prop "Trajectory.run: jobs 1/2/4 identical rows"
      QCheck2.Gen.(pair (int_range 0 10_000) (int_range 1 4))
      (fun (seed, trials) ->
        all_equal
          (List.map
             (fun jobs ->
               List.map
                 (fun (r : Trajectory.row) ->
                   ( r.Trajectory.points,
                     Vec.to_list
                       (Distribution.to_vec r.Trajectory.distribution),
                     r.Trajectory.tv_to_theory,
                     r.Trajectory.average_occupancy ))
                 (Trajectory.run ~capacity:4 ~sizes:[ 50; 120 ] ~jobs
                    ~model:Sampler.Uniform ~trials ~seed ()))
             job_counts));
    prop "Mc_transform.estimate: jobs 1/2/4 identical matrices"
      QCheck2.Gen.(pair (int_range 0 10_000) (int_range 1 4))
      (fun (seed, capacity) ->
        all_equal
          (List.map
             (fun jobs ->
               Transform.matrix
                 (Mc_transform.estimate ~trials:200 ~jobs
                    (Xoshiro.of_int_seed seed)
                    (Mc_transform.pr_point_model ~capacity)))
             job_counts));
    prop "arena freeze = builder freeze = of_points, at jobs 1/2/4"
      QCheck2.Gen.(
        quad (int_range 0 10_000) (int_range 1 6) (int_range 2 16)
          (int_range 1 8))
      (fun (seed, capacity, max_depth, trials) ->
        (* The arena's bulk build, its incremental builder and the
           persistent tree must coincide structurally on every trial's
           point set, and the frozen trees coming back through the pool
           must be (=)-identical whichever domain built them. *)
        let w = Workload.make ~points:200 ~trials ~seed () in
        let per_jobs =
          List.map
            (fun jobs ->
              Workload.map_trials ~jobs w ~f:(fun _ pts ->
                  let reference =
                    Pr_quadtree.of_points ~capacity ~max_depth pts
                  in
                  let via_builder =
                    Pr_arena.freeze
                      (Pr_arena.of_points ~capacity ~max_depth pts)
                  in
                  let via_bulk =
                    Pr_arena.freeze
                      (Pr_arena.of_points_bulk ~capacity ~max_depth pts)
                  in
                  ( Pr_quadtree.equal_structure via_builder reference
                    && Pr_quadtree.equal_structure via_bulk reference,
                    via_bulk )))
            job_counts
        in
        all_equal per_jobs
        && List.for_all (fun (ok, _) -> ok) (List.hd per_jobs));
    prop "map_trials: jobs 1/2/4 identical; streaming = indexed = eager"
      QCheck2.Gen.(triple (int_range 0 10_000) (int_range 1 5) bool)
      (fun (seed, trials, gaussian) ->
        let w =
          Workload.make ~model:(model_of_bit gaussian) ~points:50 ~trials
            ~seed ()
        in
        let tagged =
          List.map
            (fun jobs ->
              Workload.map_trials ~jobs w ~f:(fun i pts -> (i, pts)))
            job_counts
        in
        all_equal tagged
        && List.hd tagged = map_trials_reference w ~f:(fun i pts -> (i, pts))
        && List.map snd (List.hd tagged)
           = List.init trials (Workload.points_of_trial w)
        && List.for_all
             (fun (i, pts) -> Workload.points_of_trial w i = pts)
             (List.hd tagged));
  ]

let () =
  Alcotest.run "popan_parallel"
    [ ("pool", pool_tests); ("determinism", determinism_tests) ]
