(* Tests for the experiment harness: workloads, the Table 1/2 pipeline,
   the depth profile (Table 3), sweeps (Tables 4/5), the embedded paper
   data, and the extension studies. These are end-to-end statistical
   checks run at reduced scale, with tolerances wide enough to be
   deterministic for the fixed seeds used. *)

open Popan_experiments
module Distribution = Popan_core.Distribution
module Phasing = Popan_core.Phasing
module Sampler = Popan_rng.Sampler
module Xoshiro = Popan_rng.Xoshiro
module Point = Popan_geom.Point
module Pr_arena = Popan_trees.Pr_arena
module Pr_quadtree = Popan_trees.Pr_quadtree

let check_close tol = Alcotest.(check (float tol))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let small_workload = Workload.make ~points:500 ~trials:4 ~seed:7 ()
let paper_workload = Workload.make ~points:1000 ~trials:10 ~seed:1987 ()

let workload_tests =
  [
    Alcotest.test_case "defaults are the paper's" `Quick (fun () ->
        let w = Workload.make () in
        check_int "points" 1000 w.Workload.points;
        check_int "trials" 10 w.Workload.trials);
    Alcotest.test_case "validation" `Quick (fun () ->
        Alcotest.check_raises "points" (Invalid_argument "Workload.make: points <= 0")
          (fun () -> ignore (Workload.make ~points:0 ()));
        Alcotest.check_raises "trials" (Invalid_argument "Workload.make: trials <= 0")
          (fun () -> ignore (Workload.make ~trials:(-1) ())));
    Alcotest.test_case "trials are deterministic per seed" `Quick (fun () ->
        let w = Workload.make ~points:10 ~trials:3 ~seed:5 () in
        let a = Workload.map_trials w ~f:(fun _ pts -> pts) in
        let b = Workload.map_trials w ~f:(fun _ pts -> pts) in
        check_bool "same" true (a = b));
    Alcotest.test_case "trials are pairwise different" `Quick (fun () ->
        let w = Workload.make ~points:10 ~trials:3 ~seed:5 () in
        match Workload.map_trials w ~f:(fun _ pts -> pts) with
        | [ t1; t2; t3 ] ->
          check_bool "t1<>t2" true (t1 <> t2);
          check_bool "t2<>t3" true (t2 <> t3)
        | _ -> Alcotest.fail "expected 3 trials");
    Alcotest.test_case "points_of_trial matches the streamed trial" `Quick
      (fun () ->
        let w = Workload.make ~points:10 ~trials:3 ~seed:5 () in
        let streamed = Workload.map_trials w ~f:(fun i pts -> (i, pts)) in
        List.iter
          (fun (i, pts) ->
            check_bool
              (Printf.sprintf "trial %d" i)
              true
              (Workload.points_of_trial w i = pts))
          streamed;
        Alcotest.check_raises "out of range"
          (Invalid_argument "Workload.points_of_trial: trial index out of range")
          (fun () -> ignore (Workload.points_of_trial w 3)));
    Alcotest.test_case "map_trials passes indices" `Quick (fun () ->
        let w = Workload.make ~points:1 ~trials:3 ~seed:5 () in
        Alcotest.(check (list int)) "indices" [ 0; 1; 2 ]
          (Workload.map_trials w ~f:(fun i _ -> i)));
  ]

let occupancy_tests =
  [
    Alcotest.test_case "measurement fields consistent" `Quick (fun () ->
        let m = Occupancy.measure_pr small_workload ~capacity:4 in
        check_int "trials" 4 m.Occupancy.trials;
        check_bool "positive leaves" true (m.Occupancy.leaf_count_mean > 0.0);
        check_close 1e-9 "distribution sums to 1" 1.0
          (Popan_numerics.Vec.sum
             (Distribution.to_vec m.Occupancy.distribution));
        let lo, hi = m.Occupancy.occupancy_ci in
        check_bool "ci brackets mean" true
          (lo <= m.Occupancy.average_occupancy
           && m.Occupancy.average_occupancy <= hi));
    Alcotest.test_case "comparison against theory plausible" `Quick (fun () ->
        let c = Occupancy.compare_pr small_workload ~capacity:2 in
        check_bool "theory above exp (aging)" true
          (c.Occupancy.percent_difference > 0.0);
        check_bool "but within 25%" true (c.Occupancy.percent_difference < 25.0));
    Alcotest.test_case "paper reproduction: Table 2 experimental column" `Slow
      (fun () ->
        (* Each experimental occupancy should land within ~6% of the
           paper's published measurement. *)
        let comparisons = Occupancy.table1 paper_workload in
        List.iter
          (fun (c : Occupancy.comparison) ->
            let _, paper_exp, _, _ =
              List.find
                (fun (m, _, _, _) -> m = c.Occupancy.capacity)
                Paper_data.table2
            in
            let ours = c.Occupancy.measured.Occupancy.average_occupancy in
            check_bool
              (Printf.sprintf "capacity %d: %.3f vs paper %.2f"
                 c.Occupancy.capacity ours paper_exp)
              true
              (Float.abs (ours -. paper_exp) /. paper_exp < 0.06))
          comparisons);
    Alcotest.test_case "paper reproduction: Table 1 experimental vectors" `Slow
      (fun () ->
        (* Total variation to the paper's measured distributions is small. *)
        let comparisons = Occupancy.table1 paper_workload in
        List.iter
          (fun (c : Occupancy.comparison) ->
            let paper =
              List.assoc c.Occupancy.capacity Paper_data.table1_experiment
            in
            let paper_d =
              Distribution.of_weights (Popan_numerics.Vec.of_list paper)
            in
            let tv =
              Distribution.total_variation paper_d
                c.Occupancy.measured.Occupancy.distribution
            in
            check_bool
              (Printf.sprintf "capacity %d: TV %.3f" c.Occupancy.capacity tv)
              true (tv < 0.05))
          comparisons);
    Alcotest.test_case "builder path agrees with the persistent path" `Quick
      (fun () ->
        (* measure_pr runs on the arena's bulk builder; recompute every
           statistic from persistent trees and demand exact agreement. *)
        let m = Occupancy.measure_pr small_workload ~capacity:4 in
        let trees =
          Workload.map_trials small_workload ~f:(fun _ pts ->
              Popan_trees.Pr_quadtree.of_points ~capacity:4 pts)
        in
        let occs = List.map Popan_trees.Pr_quadtree.average_occupancy trees in
        let leaves =
          List.map
            (fun t -> float_of_int (Popan_trees.Pr_quadtree.leaf_count t))
            trees
        in
        check_close 0.0 "occupancy" (Popan_numerics.Stats.mean occs)
          m.Occupancy.average_occupancy;
        check_close 0.0 "leaves" (Popan_numerics.Stats.mean leaves)
          m.Occupancy.leaf_count_mean);
    Alcotest.test_case "bintree measurement works" `Quick (fun () ->
        let m = Occupancy.measure_bintree small_workload ~capacity:3 in
        check_bool "occupancy sane" true
          (m.Occupancy.average_occupancy > 0.5
           && m.Occupancy.average_occupancy < 3.0));
    Alcotest.test_case "octree measurement works" `Quick (fun () ->
        let m =
          Occupancy.measure_md ~dim:3 ~points:400 ~trials:3 ~seed:9 ~capacity:3 ()
        in
        check_bool "occupancy sane" true
          (m.Occupancy.average_occupancy > 0.3
           && m.Occupancy.average_occupancy < 3.0));
  ]

let depth_profile_tests =
  [
    Alcotest.test_case "rows ordered by depth" `Quick (fun () ->
        let rows = Depth_profile.run small_workload in
        let depths = List.map (fun r -> r.Depth_profile.depth) rows in
        check_bool "sorted" true (depths = List.sort compare depths));
    Alcotest.test_case "occupancy between 0 and capacity plus" `Quick (fun () ->
        List.iter
          (fun r ->
            if r.Depth_profile.occupancy < 0.0 then Alcotest.fail "negative")
          (Depth_profile.run small_workload));
    Alcotest.test_case "asymptote matches paper's 0.4" `Quick (fun () ->
        check_close 1e-9 "0.4" 0.4 (Depth_profile.post_split_asymptote ~capacity:1));
    Alcotest.test_case "paper reproduction: aging decay to ~0.4" `Slow
      (fun () ->
        let rows = Depth_profile.run paper_workload in
        (* Drop the deepest level (truncation artifact, as in the paper). *)
        let rows = List.filteri (fun i _ -> i < List.length rows - 1) rows in
        match rows with
        | first :: _ ->
          let last = List.nth rows (List.length rows - 1) in
          check_bool "decays" true
            (first.Depth_profile.occupancy > last.Depth_profile.occupancy);
          check_bool "toward 0.4" true
            (Float.abs (last.Depth_profile.occupancy -. 0.4) < 0.07)
        | [] -> Alcotest.fail "no rows");
    Alcotest.test_case "monotone_prefix measures trend" `Quick (fun () ->
        let mk occupancy =
          { Depth_profile.depth = 0; empty_leaves = 0.0; full_leaves = 0.0;
            occupancy }
        in
        check_int "prefix" 3
          (Depth_profile.monotone_prefix [ mk 3.0; mk 2.0; mk 1.5; mk 2.5 ]));
  ]

let sweep_tests =
  [
    Alcotest.test_case "grid matches the paper's ladder" `Quick (fun () ->
        let g = Sweep.grid ~lo:64 ~hi:4096 () in
        Alcotest.(check (list int)) "ladder" Paper_data.sweep_points g);
    Alcotest.test_case "grid validates" `Quick (fun () ->
        Alcotest.check_raises "lo" (Invalid_argument "Sweep.grid: need 0 < lo <= hi")
          (fun () -> ignore (Sweep.grid ~lo:0 ~hi:10 ()));
        Alcotest.check_raises "lo > hi"
          (Invalid_argument "Sweep.grid: need 0 < lo <= hi")
          (fun () -> ignore (Sweep.grid ~lo:128 ~hi:64 ()));
        Alcotest.check_raises "steps"
          (Invalid_argument "Sweep.grid: steps_per_quadrupling <= 0")
          (fun () ->
            ignore (Sweep.grid ~steps_per_quadrupling:0 ~lo:64 ~hi:4096 ())));
    Alcotest.test_case "grid degenerate bounds" `Quick (fun () ->
        (* lo = hi is legal and yields the single size. *)
        Alcotest.(check (list int)) "singleton" [ 100 ]
          (Sweep.grid ~lo:100 ~hi:100 ()));
    Alcotest.test_case "run produces one row per size" `Quick (fun () ->
        let rows =
          Sweep.run ~sizes:[ 64; 128; 256 ] ~model:Sampler.Uniform ~trials:2
            ~seed:3 ()
        in
        check_int "rows" 3 (List.length rows);
        List.iter
          (fun r ->
            check_bool "occ positive" true (r.Sweep.occupancy > 0.0);
            check_bool "nodes positive" true (r.Sweep.nodes > 0.0))
          rows);
    Alcotest.test_case "incremental sweep matches fresh builds in law" `Quick
      (fun () ->
        (* Same statistic, same grid: the two variants should land within
           a few percent of each other on average. *)
        let fresh =
          Sweep.run ~capacity:8 ~sizes:[ 256; 512; 1024 ]
            ~model:Sampler.Uniform ~trials:6 ~seed:12 ()
        in
        let grown =
          Sweep.run_incremental ~capacity:8 ~sizes:[ 256; 512; 1024 ]
            ~model:Sampler.Uniform ~trials:6 ~seed:13 ()
        in
        List.iter2
          (fun (a : Sweep.row) (b : Sweep.row) ->
            check_bool "close" true
              (Float.abs (a.Sweep.occupancy -. b.Sweep.occupancy)
               /. a.Sweep.occupancy
               < 0.12))
          fresh grown);
    Alcotest.test_case "incremental sweep validates sizes" `Quick (fun () ->
        check_bool "raises" true
          (match
             Sweep.run_incremental ~sizes:[ 128; 64 ] ~model:Sampler.Uniform
               ~trials:1 ~seed:1 ()
           with
           | _ -> false
           | exception Invalid_argument _ -> true));
    Alcotest.test_case "incremental phasing still visible" `Slow (fun () ->
        let rows =
          Sweep.run_incremental ~capacity:8 ~model:Sampler.Uniform ~trials:8
            ~seed:1987 ()
        in
        let series = Sweep.series rows in
        check_bool "amplitude" true (Phasing.amplitude series > 0.4);
        List.iter
          (fun r -> check_bool "period" true (r > 2.5 && r < 6.0))
          (Phasing.peak_ratios series));
    Alcotest.test_case "paper reproduction: uniform phasing sustained" `Slow
      (fun () ->
        let rows =
          Sweep.run ~capacity:8 ~model:Sampler.Uniform ~trials:10 ~seed:1987 ()
        in
        let series = Sweep.series rows in
        (* Oscillation is substantial and does not damp. *)
        check_bool "amplitude" true (Phasing.amplitude series > 0.4);
        check_bool "sustained" true (Phasing.damping_ratio series > 0.6);
        (* Peaks spaced a factor of ~4 apart. *)
        List.iter
          (fun r -> check_bool "period" true (r > 2.5 && r < 6.0))
          (Phasing.peak_ratios series));
    Alcotest.test_case "paper reproduction: gaussian phasing damps" `Slow
      (fun () ->
        let uniform =
          Sweep.run ~capacity:8 ~model:Sampler.Uniform ~trials:10 ~seed:1987 ()
        in
        let gaussian =
          Sweep.run ~capacity:8 ~model:Sampler.paper_gaussian ~trials:10
            ~seed:1987 ()
        in
        let au = Phasing.amplitude (Sweep.series uniform) in
        let ag = Phasing.amplitude (Sweep.series gaussian) in
        (* Table 5's spread (3.46..4.15 early, ~3.6-3.7 late) is visibly
           narrower than Table 4's (3.30..4.15 throughout). *)
        check_bool "narrower" true (ag < au);
        let damping_g = Phasing.damping_ratio (Sweep.series gaussian) in
        let damping_u = Phasing.damping_ratio (Sweep.series uniform) in
        check_bool "damps more" true (damping_g < damping_u));
    Alcotest.test_case "occupancy within paper's band" `Slow (fun () ->
        let rows =
          Sweep.run ~capacity:8 ~model:Sampler.Uniform ~trials:10 ~seed:1987 ()
        in
        List.iter
          (fun r ->
            check_bool
              (Printf.sprintf "n=%d occ=%.2f" r.Sweep.points r.Sweep.occupancy)
              true
              (r.Sweep.occupancy > 3.0 && r.Sweep.occupancy < 4.6))
          rows);
    Alcotest.test_case "concurrent footprint prices the builds that overlap"
      `Quick (fun () ->
        (* The pool starts pairs largest first, so the builds resident
           at once are the first [jobs] of that order, trials
           included. *)
        let one n = Pr_arena.bulk_footprint ~capacity:8 ~n in
        let sizes = [ 262_144; 1_048_576; 524_288; 741_455 ] in
        let price jobs trials sizes =
          Sweep.concurrent_footprint ~capacity:8 ~sizes ~jobs ~trials ()
        in
        Alcotest.(check (pair (list int) int))
          "jobs 1: the largest build"
          ([ 1_048_576 ], one 1_048_576)
          (price 1 1 sizes);
        Alcotest.(check (pair (list int) int))
          "jobs 2: the two largest"
          ([ 1_048_576; 741_455 ], one 1_048_576 + one 741_455)
          (price 2 1 sizes);
        Alcotest.(check (pair (list int) int))
          "one size, 3 trials, jobs 2: two of its builds"
          ([ 4_096; 4_096 ], 2 * one 4_096)
          (price 2 3 [ 4_096 ]);
        Alcotest.(check (pair (list int) int))
          "more jobs than builds: every build"
          ([ 512; 256 ], one 512 + one 256)
          (price 8 1 [ 256; 512 ]);
        Alcotest.check_raises "trials"
          (Invalid_argument "Sweep.concurrent_footprint: trials <= 0")
          (fun () -> ignore (price 2 0 sizes)));
    Alcotest.test_case "pairs start largest first, stable among equal sizes"
      `Quick (fun () ->
        Alcotest.(check (array int))
          "order" [| 2; 3; 6; 7; 0; 1; 4; 5 |]
          (Fan_out.largest_first ~sizes:[| 64; 256; 64; 256 |] ~trials:2));
  ]

let trajectory_tests =
  [
    Alcotest.test_case "rows per grid size with sane fields" `Quick (fun () ->
        let rows =
          Trajectory.run ~capacity:4 ~sizes:[ 128; 256 ]
            ~model:Sampler.Uniform ~trials:2 ~seed:8 ()
        in
        check_int "rows" 2 (List.length rows);
        List.iter
          (fun (r : Trajectory.row) ->
            check_bool "tv in [0,1]" true
              (r.Trajectory.tv_to_theory >= 0.0 && r.Trajectory.tv_to_theory <= 1.0);
            check_bool "occ positive" true (r.Trajectory.average_occupancy > 0.0))
          rows);
    Alcotest.test_case "uniform d_n keeps oscillating around e" `Slow
      (fun () ->
        let rows =
          Trajectory.run ~capacity:8 ~model:Sampler.Uniform ~trials:8
            ~seed:1987 ()
        in
        (* Substantial sustained swing in TV-to-theory. *)
        check_bool "oscillates" true (Trajectory.oscillation rows > 0.08);
        let tvs = List.map (fun (r : Trajectory.row) -> r.Trajectory.tv_to_theory) rows in
        let late = List.filteri (fun i _ -> i >= List.length tvs / 2) tvs in
        let late_amp =
          List.fold_left Float.max Float.neg_infinity late
          -. List.fold_left Float.min Float.infinity late
        in
        check_bool "does not settle" true (late_amp > 0.05));
    Alcotest.test_case "oscillation rejects empty" `Quick (fun () ->
        check_bool "raises" true
          (match Trajectory.oscillation [] with
           | _ -> false
           | exception Invalid_argument _ -> true));
  ]

let paper_data_tests =
  [
    Alcotest.test_case "table1 vectors sum to ~1" `Quick (fun () ->
        List.iter
          (fun (_, v) ->
            let s = List.fold_left ( +. ) 0.0 v in
            check_bool "sum" true (Float.abs (s -. 1.0) < 0.01))
          (Paper_data.table1_theory @ Paper_data.table1_experiment));
    Alcotest.test_case "table1 vector lengths are m+1" `Quick (fun () ->
        List.iter
          (fun (m, v) -> check_int "len" (m + 1) (List.length v))
          Paper_data.table1_theory);
    Alcotest.test_case "table2 occupancies match table1 vectors" `Quick
      (fun () ->
        (* Published theoretical occupancy = dot(vector, 0..m) within
           rounding. *)
        List.iter
          (fun (m, v) ->
            let occ =
              List.fold_left ( +. ) 0.0
                (List.mapi (fun i p -> float_of_int i *. p) v)
            in
            let _, _, thy, _ =
              List.find (fun (m', _, _, _) -> m' = m) Paper_data.table2
            in
            check_bool "consistent" true (Float.abs (occ -. thy) < 0.02))
          Paper_data.table1_theory);
    Alcotest.test_case "table4 occupancy = points/nodes" `Quick (fun () ->
        List.iter
          (fun (points, nodes, occ) ->
            check_bool "ratio" true
              (Float.abs ((float_of_int points /. nodes) -. occ) < 0.05))
          Paper_data.table4);
    Alcotest.test_case "sweep grid quadruples every four steps" `Quick
      (fun () ->
        let arr = Array.of_list Paper_data.sweep_points in
        for i = 0 to Array.length arr - 5 do
          (* The paper truncated 90.5 to 90, so allow rounding slack. *)
          check_bool "x4" true (abs ((arr.(i) * 4) - arr.(i + 4)) <= 4)
        done);
  ]

let churn_tests =
  let spec ?(ops = 2000) ?(q = 0.5) ?(u = 0.3) () =
    Workload.Churn.make ~points:400 ~trials:3 ~seed:11 ~ops ~insert_fraction:q
      ~update_fraction:u ()
  in
  [
    Alcotest.test_case "spec validation" `Quick (fun () ->
        Alcotest.check_raises "ops"
          (Invalid_argument "Workload.Churn.make: ops < 0") (fun () ->
            ignore (Workload.Churn.make ~ops:(-1) ()));
        Alcotest.check_raises "insert_fraction"
          (Invalid_argument
             "Workload.Churn.make: insert_fraction outside [0, 1]") (fun () ->
            ignore (Workload.Churn.make ~insert_fraction:1.5 ()));
        Alcotest.check_raises "update_fraction"
          (Invalid_argument
             "Workload.Churn.make: update_fraction outside [0, 1]") (fun () ->
            ignore (Workload.Churn.make ~update_fraction:(-0.1) ()));
        Alcotest.check_raises "drift"
          (Invalid_argument "Workload.Churn.make: drift_sigma outside [0, 1)")
          (fun () -> ignore (Workload.Churn.make ~drift_sigma:1.0 ())));
    Alcotest.test_case "event stream is deterministic per seed" `Quick
      (fun () ->
        let s = spec () in
        let stream () =
          Workload.Churn.map_trials s ~f:(fun _ rng ->
              let st = Workload.Churn.start s ~rng in
              List.init s.Workload.Churn.ops (fun _ ->
                  Workload.Churn.step s st))
        in
        check_bool "replayed" true (stream () = stream ()));
    Alcotest.test_case "restore replays the uninterrupted tail" `Quick
      (fun () ->
        let s = spec () in
        let rng () =
          List.hd (Workload.Churn.map_trials s ~f:(fun _ rng -> rng))
        in
        (* Uninterrupted: record the tail after a cut point. *)
        let st = Workload.Churn.start s ~rng:(rng ()) in
        let cut = 700 in
        for _ = 1 to cut do ignore (Workload.Churn.step s st) done;
        let saved_live = Workload.Churn.live st in
        let saved_rng =
          Xoshiro.of_words (Xoshiro.to_words (Workload.Churn.rng st))
        in
        let tail =
          List.init (s.Workload.Churn.ops - cut) (fun _ ->
              Workload.Churn.step s st)
        in
        (* Resume from the snapshot: same tail, byte for byte. *)
        let resumed =
          Workload.Churn.restore ~rng:saved_rng ~live:saved_live ~ops_done:cut
        in
        let tail' =
          List.init (s.Workload.Churn.ops - cut) (fun _ ->
              Workload.Churn.step s resumed)
        in
        check_bool "tail" true (tail = tail');
        check_bool "final live" true
          (Workload.Churn.live st = Workload.Churn.live resumed));
    Alcotest.test_case "effective insert fraction" `Quick (fun () ->
        check_close 1e-12 "pure mix" 0.5
          (Churn.effective_insert_fraction (spec ~q:0.5 ~u:0.0 ()));
        check_close 1e-12 "updates keep a balanced mix balanced" 0.5
          (Churn.effective_insert_fraction (spec ~q:0.5 ~u:0.5 ()));
        check_close 1e-12 "insert-only" 1.0
          (Churn.effective_insert_fraction (spec ~q:1.0 ~u:0.0 ())));
    Alcotest.test_case "run is byte-identical across job counts" `Quick
      (fun () ->
        let s = spec ~ops:1500 () in
        let r1 = Churn.run ~jobs:1 s ~capacity:3 in
        let r2 = Churn.run ~jobs:2 s ~capacity:3 in
        let r4 = Churn.run ~jobs:4 s ~capacity:3 in
        check_bool "jobs 2" true (r1 = r2);
        check_bool "jobs 4" true (r1 = r4));
    Alcotest.test_case "simulation tracks the blended prediction" `Slow
      (fun () ->
        List.iter
          (fun (r : Churn.row) ->
            check_bool
              (Printf.sprintf "pct diff bounded at mix %.2f/%.2f"
                 r.Churn.insert_fraction r.Churn.update_fraction)
              true
              (Float.abs r.Churn.percent_difference < 20.0);
            check_bool "tv bounded" true
              (Popan_core.Distribution.total_variation r.Churn.measured
                 r.Churn.theory
               < 0.15);
            (* The adjoint construction makes every mix predict the
               insert-only fixed point. *)
            check_close 1e-6 "mix-independent theory"
              r.Churn.theory_occupancy
              (Popan_core.Distribution.average_occupancy
                 (Popan_core.Population.expected_distribution ~branching:4
                    ~capacity:4 ())
                   .Popan_core.Fixed_point.distribution))
          (Churn.study ~points:800 ~trials:4 ~seed:1987 ~ops:8000 ~capacity:4
             ()));
    Alcotest.test_case "event stream is pinned: 10^4 events, seeds 1, 1987"
      `Quick (fun () ->
        (* MD5 of the first 10^4 events — kind, then the IEEE bits of
           every coordinate — over 1000 uniform points with the
           server's churn mix, as the stream read when the live set was
           still an array of boxed points. Any change to the draw
           order, the live-set bookkeeping or a coordinate's bits
           moves it. *)
        let digest seed =
          let s =
            Workload.Churn.make ~points:1000 ~trials:1 ~seed ~ops:10_000
              ~insert_fraction:0.5 ~update_fraction:(1.0 /. 3.0)
              ~drift_sigma:0.01 ()
          in
          let rng = List.hd (Workload.Churn.map_trials s ~f:(fun _ r -> r)) in
          let st = Workload.Churn.start s ~rng in
          let b = Buffer.create (1 lsl 19) in
          let pt (p : Popan_geom.Point.t) =
            Buffer.add_int64_le b (Int64.bits_of_float p.x);
            Buffer.add_int64_le b (Int64.bits_of_float p.y)
          in
          for _ = 1 to 10_000 do
            match Workload.Churn.step s st with
            | Workload.Churn.Insert p ->
              Buffer.add_char b 'i';
              pt p
            | Workload.Churn.Delete p ->
              Buffer.add_char b 'd';
              pt p
            | Workload.Churn.Update (p, q) ->
              Buffer.add_char b 'u';
              pt p;
              pt q
          done;
          Digest.to_hex (Digest.string (Buffer.contents b))
        in
        Alcotest.(check string) "seed 1" "966c8d7bbba94993a545a32554fec0db"
          (digest 1);
        Alcotest.(check string) "seed 1987" "2b42d59288417ae828fb7291426408d0"
          (digest 1987));
  ]

(* History independence, the fact a resume by rebuild rests on: a PR
   quadtree's shape is a function of its points. Stop a random churn
   stream at a random op k, bulk-build its live points, and apply the
   rest of the stream to both the churned arena and the rebuilt one.
   After every op the two must agree on everything a report reads, and
   the churned arena's slot high-water mark must be the larger of its
   own at k and the rebuilt arena's: the running max a churn
   checkpoint carries in [have]. *)
let history_case (seed, capacity, max_depth, clustered, k) =
  let ops = 400 in
  let model =
    if clustered then
      Sampler.Clusters
        { centers = [ Point.make 0.3 0.7; Point.make 0.71 0.2 ]; sigma = 0.01 }
    else Sampler.Uniform
  in
  let spec =
    Workload.Churn.make ~model ~points:(50 + (seed mod 250)) ~trials:1 ~seed
      ~ops ~insert_fraction:0.5 ~update_fraction:0.3 ()
  in
  let st =
    Workload.Churn.start spec
      ~rng:(List.hd (Workload.Churn.map_trials spec ~f:(fun _ rng -> rng)))
  in
  let build () =
    Pr_arena.of_points_bulk ~max_depth ~capacity
      (Array.to_list (Workload.Churn.live st))
  in
  let apply arena = function
    | Workload.Churn.Insert p -> Pr_arena.insert arena p
    | Workload.Churn.Delete p ->
      if not (Pr_arena.delete arena p) then failwith "delete missed"
    | Workload.Churn.Update (p, q) ->
      if not (Pr_arena.update arena p q) then failwith "update missed"
  in
  let churned = build () in
  for _ = 1 to k do
    apply churned (Workload.Churn.step spec st)
  done;
  let high_k = Pr_arena.slot_high_water churned in
  let rebuilt = build () in
  let agree () =
    Pr_quadtree.equal_structure (Pr_arena.freeze churned)
      (Pr_arena.freeze rebuilt)
    && Pr_arena.occupancy_histogram churned
       = Pr_arena.occupancy_histogram rebuilt
    && Pr_arena.leaf_count churned = Pr_arena.leaf_count rebuilt
    && Pr_arena.internal_count churned = Pr_arena.internal_count rebuilt
    && Pr_arena.height churned = Pr_arena.height rebuilt
    && Pr_arena.size churned = Pr_arena.size rebuilt
    && Pr_arena.slot_high_water churned
       = max high_k (Pr_arena.slot_high_water rebuilt)
  in
  let ok = ref true in
  for _ = k + 1 to ops do
    let event = Workload.Churn.step spec st in
    apply churned event;
    apply rebuilt event;
    ok := !ok && agree ()
  done;
  !ok

let history_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:40
         ~print:(fun (seed, capacity, max_depth, clustered, k) ->
           Printf.sprintf "seed=%d capacity=%d max_depth=%d clustered=%b k=%d"
             seed capacity max_depth clustered k)
         ~name:"churned arena ≡ rebuild from its live points"
         QCheck2.Gen.(
           tup5 (int_range 1 1_000_000) (int_range 1 8) (int_range 0 16) bool
             (int_range 0 399))
         history_case);
  ]

let ext_tests =
  [
    Alcotest.test_case "branching study covers b=2,4,8" `Quick (fun () ->
        (* 1000 points: small-N phasing distorts the octree badly below
           that (8-way splits leave freshly split populations very
           empty). *)
        let rows = Ext.branching_study ~points:1000 ~trials:3 ~seed:1 () in
        Alcotest.(check (list int)) "bs" [ 2; 4; 8 ]
          (List.map (fun r -> r.Ext.branching) rows);
        List.iter
          (fun r ->
            check_bool "error bounded" true
              (Float.abs r.Ext.percent_difference < 30.0))
          rows);
    Alcotest.test_case "pmr study: model close to simulation" `Slow (fun () ->
        let result = Ext.pmr_study ~segments:300 ~trials:3 ~seed:2 ~threshold:4 () in
        check_bool "tv" true (result.Ext.total_variation < 0.15);
        check_bool "occ close" true
          (Float.abs (result.Ext.theory_occupancy -. result.Ext.measured_occupancy)
           < 0.6));
    Alcotest.test_case "exthash utilization near ln2" `Quick (fun () ->
        let rows = Ext.ext_hash_sweep ~sizes:[ 512; 1024 ] ~trials:3 ~seed:3 () in
        List.iter
          (fun r -> check_bool "band" true (r.Ext.utilization > 0.6 && r.Ext.utilization < 0.8))
          rows);
    Alcotest.test_case "grid file utilization sane" `Quick (fun () ->
        let rows = Ext.grid_file_sweep ~sizes:[ 256; 512 ] ~trials:2 ~seed:4 () in
        List.iter
          (fun r -> check_bool "band" true (r.Ext.utilization > 0.2 && r.Ext.utilization <= 1.0))
          rows);
    Alcotest.test_case "excell sweep utilization sane" `Quick (fun () ->
        let rows = Ext.excell_sweep ~sizes:[ 512; 1024 ] ~trials:2 ~seed:6 () in
        List.iter
          (fun r ->
            check_bool "band" true
              (r.Ext.utilization > 0.55 && r.Ext.utilization < 0.85))
          rows);
    Alcotest.test_case "b=2 model predicts extendible hashing" `Slow
      (fun () ->
        let r = Ext.hash_model_study ~keys:2048 ~trials:3 ~seed:7 ~bucket_size:8 () in
        check_bool "tv hash" true (r.Ext.hash_tv < 0.12);
        check_bool "tv excell" true (r.Ext.excell_tv < 0.12);
        (* All three utilizations in the ln 2 neighborhood. *)
        List.iter
          (fun u -> check_bool "near ln2" true (Float.abs (u -. log 2.0) < 0.06))
          [ r.Ext.theory_utilization; r.Ext.hash_utilization;
            r.Ext.excell_utilization ]);
    Alcotest.test_case "pmr threshold sweep tracks the simulator" `Slow
      (fun () ->
        let rows =
          Ext.pmr_threshold_sweep ~thresholds:[ 2; 4 ] ~segments:200 ~trials:2
            ~seed:10 ()
        in
        check_int "rows" 2 (List.length rows);
        List.iter
          (fun (r : Ext.pmr_result) ->
            check_bool "tv" true (r.Ext.total_variation < 0.2))
          rows);
    Alcotest.test_case "bucket size sweep near ln2" `Slow (fun () ->
        let rows =
          Ext.bucket_size_sweep ~bucket_sizes:[ 4; 8 ] ~keys:1024 ~trials:2
            ~seed:11 ()
        in
        List.iter
          (fun (r : Ext.hash_model_result) ->
            check_bool "thy near ln2" true
              (Float.abs (r.Ext.theory_utilization -. log 2.0) < 0.05);
            check_bool "measured near thy" true
              (Float.abs (r.Ext.hash_utilization -. r.Ext.theory_utilization)
               < 0.08))
          rows);
    Alcotest.test_case "churn keeps invariants and sane values" `Quick
      (fun () ->
        let rows =
          Ext.churn_study ~points:300 ~churn_steps:600 ~trials:2 ~seed:9
            ~capacity:4 ()
        in
        check_int "three rows" 3 (List.length rows);
        List.iter
          (fun (r : Ext.churn_row) ->
            check_bool "occ" true (r.Ext.occupancy > 0.5 && r.Ext.occupancy < 4.0);
            check_bool "tv" true
              (r.Ext.tv_to_theory >= 0.0 && r.Ext.tv_to_theory <= 1.0))
          rows);
    Alcotest.test_case "solver study rows agree" `Quick (fun () ->
        let rows = Ext.solver_study ~capacities:[ 2; 5 ] () in
        let by_capacity c =
          List.filter (fun (r : Ext.solver_row) -> r.Ext.capacity = c) rows
          |> List.map (fun (r : Ext.solver_row) -> r.Ext.occupancy)
        in
        List.iter
          (fun c ->
            match by_capacity c with
            | a :: rest ->
              List.iter
                (fun b -> check_close 1e-6 "same occupancy" a b)
                rest
            | [] -> Alcotest.fail "no rows")
          [ 2; 5 ]);
    Alcotest.test_case "aging correction reduces error" `Slow (fun () ->
        let rows = Ext.aging_study ~points:1000 ~trials:5 ~seed:5 ~capacities:[ 2; 4 ] () in
        List.iter
          (fun r ->
            check_bool "improves" true
              (Float.abs r.Ext.corrected_error_pct
               < Float.abs r.Ext.plain_error_pct))
          rows);
  ]

let points_io_tests =
  let open Popan_geom in
  [
    Alcotest.test_case "parse with header" `Quick (fun () ->
        let pts = Points_io.of_csv_string "x,y\n0.5,0.25\n0.75,0.1\n" in
        check_int "count" 2 (List.length pts);
        check_bool "first" true
          (Point.equal (List.hd pts) (Point.make 0.5 0.25)));
    Alcotest.test_case "parse without header" `Quick (fun () ->
        check_int "count" 2
          (List.length (Points_io.of_csv_string "1,2\n3,4\n")));
    Alcotest.test_case "bad row reported with line number" `Quick (fun () ->
        check_bool "raises" true
          (match Points_io.of_csv_string "x,y\n1,2\noops,3\n" with
           | _ -> false
           | exception Failure msg ->
             String.length msg > 0
             && String.contains msg '3' (* line 3 *)));
    Alcotest.test_case "three columns rejected" `Quick (fun () ->
        check_bool "raises" true
          (match Points_io.of_csv_string "1,2,3\n" with
           | _ -> false
           | exception Failure _ -> true));
    Alcotest.test_case "diagnostics carry path, line and reason" `Quick
      (fun () ->
        let contains msg needle =
          let nl = String.length needle and hl = String.length msg in
          let rec go i =
            i + nl <= hl && (String.sub msg i nl = needle || go (i + 1))
          in
          nl = 0 || go 0
        in
        let fails input check_msg =
          match Points_io.of_csv_string ~path:"pts.csv" input with
          | _ -> Alcotest.failf "accepted %S" input
          | exception Failure msg ->
            check_bool (Printf.sprintf "message for %S: %s" input msg) true
              (check_msg msg)
        in
        (* Garbage cell: named with its value. *)
        fails "x,y\n1,2\noops,3\n" (fun m ->
            contains m "pts.csv:3:" && contains m "\"oops\"");
        (* Truncated final row: trailing comma leaves an empty cell. *)
        fails "x,y\n0.1,0.2\n0.3," (fun m ->
            contains m "pts.csv:3:" && contains m "truncated");
        (* Truncated mid-number is still a bad cell, not a crash. *)
        fails "1,2\n3,4e" (fun m ->
            contains m "pts.csv:2:" && contains m "\"4e\"");
        (* Wrong arity: the count is reported. *)
        fails "1,2\n1,2,3\n" (fun m ->
            contains m "pts.csv:2:" && contains m "got 3");
        fails "1,2\n7\n" (fun m ->
            contains m "pts.csv:2:" && contains m "got 1");
        (* Blank lines are skipped but keep their line numbers. *)
        fails "1,2\n\n\nbad,row\n" (fun m -> contains m "pts.csv:4:"));
    Alcotest.test_case "load names the file in errors" `Quick (fun () ->
        let path = Filename.temp_file "popan_bad" ".csv" in
        let oc = open_out path in
        output_string oc "x,y\nnot,numbers\n";
        close_out oc;
        let result =
          match Points_io.load path with
          | _ -> "accepted"
          | exception Failure msg -> msg
        in
        Sys.remove path;
        check_bool "path in message" true
          (String.length result > String.length path
           && String.sub result 0 (String.length path) = path));
    Alcotest.test_case "roundtrip exact" `Quick (fun () ->
        let pts =
          Popan_rng.Sampler.points (Popan_rng.Xoshiro.of_int_seed 12)
            Popan_rng.Sampler.Uniform 50
        in
        let back = Points_io.of_csv_string (Points_io.to_csv_string pts) in
        check_bool "equal" true (List.for_all2 Point.equal pts back));
    Alcotest.test_case "normalize maps into unit square" `Quick (fun () ->
        let pts =
          [ Point.make (-10.0) 5.0; Point.make 30.0 8.0; Point.make 3.0 7.0 ]
        in
        let normalized = Points_io.normalize pts in
        List.iter
          (fun p ->
            if not (Point.in_unit_square p) then Alcotest.fail "escaped")
          normalized);
    Alcotest.test_case "normalize preserves aspect ratio" `Quick (fun () ->
        (* Distances scale uniformly: ratios of distances preserved. *)
        let a = Point.make 0.0 0.0 and b = Point.make 4.0 0.0
        and c = Point.make 0.0 2.0 in
        match Points_io.normalize [ a; b; c ] with
        | [ a'; b'; c' ] ->
          Alcotest.(check (float 1e-9)) "ratio" 2.0
            (Point.distance a' b' /. Point.distance a' c')
        | _ -> Alcotest.fail "arity");
    Alcotest.test_case "degenerate dataset maps to center" `Quick (fun () ->
        match Points_io.normalize [ Point.make 7.0 7.0; Point.make 7.0 7.0 ] with
        | [ p; q ] ->
          check_bool "center" true
            (Point.equal p (Point.make 0.5 0.5) && Point.equal q p)
        | _ -> Alcotest.fail "arity");
    Alcotest.test_case "empty normalize rejected" `Quick (fun () ->
        Alcotest.check_raises "empty"
          (Invalid_argument "Points_io.normalize: empty dataset") (fun () ->
            ignore (Points_io.normalize [])));
  ]

let () =
  Alcotest.run "popan_experiments"
    [
      ("workload", workload_tests);
      ("occupancy", occupancy_tests);
      ("depth_profile", depth_profile_tests);
      ("sweep", sweep_tests);
      ("trajectory", trajectory_tests);
      ("paper_data", paper_data_tests);
      ("points_io", points_io_tests);
      ("churn", churn_tests);
      ("history", history_tests);
      ("ext", ext_tests);
    ]
