(* Tests for the population-analysis core: transform matrices, the
   analytic PR model, fixed-point and Newton solvers, distributions,
   Monte-Carlo transform estimation, the PMR model, aging and phasing. *)

open Popan_core
module Vec = Popan_numerics.Vec
module Matrix = Popan_numerics.Matrix
module Xoshiro = Popan_rng.Xoshiro
module Sampler = Popan_rng.Sampler
module Pr_quadtree = Popan_trees.Pr_quadtree
module Pr_arena = Popan_trees.Pr_arena
module Depth_profile = Popan_experiments.Depth_profile
module Workload = Popan_experiments.Workload

let check_float = Alcotest.(check (float 1e-9))
let check_close tol = Alcotest.(check (float tol))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let prop ?(count = 50) name gen law =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen law)

(* Transform *)

let transform_tests =
  [
    Alcotest.test_case "of_rows validates shape" `Quick (fun () ->
        check_bool "nonsquare" true
          (match Transform.of_rows [ [ 1.0; 0.0 ] ] with
           | _ -> false
           | exception Invalid_argument _ -> true));
    Alcotest.test_case "rejects negative entries" `Quick (fun () ->
        check_bool "neg" true
          (match Transform.of_rows [ [ 1.0; 0.0 ]; [ -1.0; 2.0 ] ] with
           | _ -> false
           | exception Invalid_argument _ -> true));
    Alcotest.test_case "rejects zero rows" `Quick (fun () ->
        check_bool "zero" true
          (match Transform.of_rows [ [ 0.0; 0.0 ]; [ 1.0; 1.0 ] ] with
           | _ -> false
           | exception Invalid_argument _ -> true));
    Alcotest.test_case "paper's m=1 matrix" `Quick (fun () ->
        let t = Transform.of_rows [ [ 0.0; 1.0 ]; [ 3.0; 2.0 ] ] in
        check_int "types" 2 (Transform.types t);
        check_float "t10" 3.0 (Transform.get t 1 0);
        let sums = Transform.row_sums t in
        check_float "row0" 1.0 sums.(0);
        check_float "row1" 5.0 sums.(1));
    Alcotest.test_case "normalizer at (1/2,1/2) is 3" `Quick (fun () ->
        let t = Transform.of_rows [ [ 0.0; 1.0 ]; [ 3.0; 2.0 ] ] in
        check_float "a" 3.0 (Transform.normalizer t (Vec.of_list [ 0.5; 0.5 ])));
    Alcotest.test_case "fixed point residual at solution is 0" `Quick (fun () ->
        let t = Transform.of_rows [ [ 0.0; 1.0 ]; [ 3.0; 2.0 ] ] in
        check_close 1e-12 "res" 0.0
          (Transform.fixed_point_residual t (Vec.of_list [ 0.5; 0.5 ])));
    Alcotest.test_case "matrix copy is defensive" `Quick (fun () ->
        let t = Transform.of_rows [ [ 0.0; 1.0 ]; [ 3.0; 2.0 ] ] in
        let m = Transform.matrix t in
        Matrix.set m 0 0 99.0;
        check_float "unchanged" 0.0 (Transform.get t 0 0));
  ]

(* Pr_model: the paper's closed forms *)

let pr_model_tests =
  [
    Alcotest.test_case "split distribution m=1 b=4 (paper values)" `Quick
      (fun () ->
        (* 3/4 of splits: (2,2); P = (expected buckets) = (3/2? ...) the
           paper's P_i = C(2,i) 3^(2-i)/4: P0 = 9/4? no - for m=1:
           P_i = C(2,i) 3^(2-i) / 4^1. P0 = 9/4 is wrong; check directly
           against the binomial: 4 * C(2,i) (1/4)^i (3/4)^(2-i). *)
        let p = Pr_model.split_distribution ~branching:4 ~capacity:1 in
        check_float "P0" (4.0 *. (0.75 ** 2.0)) p.(0);
        check_float "P1" (4.0 *. 2.0 *. 0.25 *. 0.75) p.(1);
        check_float "P2" (4.0 *. (0.25 ** 2.0)) p.(2));
    Alcotest.test_case "split distribution sums to branching" `Quick (fun () ->
        (* Expected number of buckets touched sums to b over i=0..m+1
           weighted? No: sum of expected bucket counts over occupancies is
           exactly b (every bucket has some occupancy). *)
        List.iter
          (fun (b, m) ->
            let p = Pr_model.split_distribution ~branching:b ~capacity:m in
            check_close 1e-9 "sum" (float_of_int b) (Vec.sum p))
          [ (2, 1); (4, 1); (4, 5); (8, 3) ]);
    Alcotest.test_case "splitting row solves the recurrence" `Quick (fun () ->
        (* t_m = (P_0..P_m) + P_{m+1} t_m, componentwise. *)
        List.iter
          (fun (b, m) ->
            let p = Pr_model.split_distribution ~branching:b ~capacity:m in
            let t = Pr_model.splitting_row ~branching:b ~capacity:m in
            for i = 0 to m do
              check_close 1e-9 "recurrence" t.(i) (p.(i) +. (p.(m + 1) *. t.(i)))
            done)
          [ (2, 2); (4, 1); (4, 4); (8, 2) ]);
    Alcotest.test_case "paper's t_1 = (3,2)" `Quick (fun () ->
        let t = Pr_model.splitting_row ~branching:4 ~capacity:1 in
        check_float "t0" 3.0 t.(0);
        check_float "t1" 2.0 t.(1));
    Alcotest.test_case "splitting row sum formula" `Quick (fun () ->
        (* (b^{m+1}-1)/(b^m-1), "slightly greater than four" for b=4. *)
        let s = Pr_model.splitting_row_sum ~branching:4 ~capacity:3 in
        check_close 1e-9 "sum" (255.0 /. 63.0) s;
        check_bool "slightly above 4" true (s > 4.0 && s < 4.1);
        let row = Pr_model.splitting_row ~branching:4 ~capacity:3 in
        check_close 1e-9 "consistent" s (Vec.sum row));
    Alcotest.test_case "transform rows are unit shifts below m" `Quick
      (fun () ->
        let t = Pr_model.transform ~branching:4 ~capacity:3 in
        for i = 0 to 2 do
          for j = 0 to 3 do
            check_float "shift"
              (if j = i + 1 then 1.0 else 0.0)
              (Transform.get t i j)
          done
        done);
    Alcotest.test_case "post-split occupancy is 0.4 for m=1 (paper)" `Quick
      (fun () ->
        check_close 1e-9 "asymptote" 0.4
          (Pr_model.post_split_occupancy ~branching:4 ~capacity:1));
    Alcotest.test_case "parameters validated" `Quick (fun () ->
        check_bool "branching" true
          (match Pr_model.transform ~branching:1 ~capacity:1 with
           | _ -> false
           | exception Invalid_argument _ -> true));
    prop "closed form equals recurrence for random (b, m)"
      QCheck2.Gen.(pair (int_range 2 9) (int_range 1 10))
      (fun (b, m) ->
        let p = Pr_model.split_distribution ~branching:b ~capacity:m in
        let t = Pr_model.splitting_row ~branching:b ~capacity:m in
        let ok = ref true in
        for i = 0 to m do
          if Float.abs (t.(i) -. (p.(i) /. (1.0 -. p.(m + 1)))) > 1e-9 then
            ok := false
        done;
        !ok);
  ]

(* Distribution *)

let distribution_tests =
  [
    Alcotest.test_case "of_vec validates sum" `Quick (fun () ->
        check_bool "bad sum" true
          (match Distribution.of_vec (Vec.of_list [ 0.5; 0.4 ]) with
           | _ -> false
           | exception Invalid_argument _ -> true));
    Alcotest.test_case "of_weights normalizes" `Quick (fun () ->
        let d = Distribution.of_weights (Vec.of_list [ 1.0; 3.0 ]) in
        check_float "p0" 0.25 (Distribution.proportion d 0));
    Alcotest.test_case "average occupancy dot product" `Quick (fun () ->
        let d = Distribution.of_vec (Vec.of_list [ 0.2; 0.3; 0.5 ]) in
        check_float "avg" 1.3 (Distribution.average_occupancy d));
    Alcotest.test_case "uniform" `Quick (fun () ->
        let d = Distribution.uniform 4 in
        check_float "p" 0.25 (Distribution.proportion d 3);
        check_float "avg" 1.5 (Distribution.average_occupancy d));
    Alcotest.test_case "fractions" `Quick (fun () ->
        let d = Distribution.of_vec (Vec.of_list [ 0.3; 0.3; 0.4 ]) in
        check_float "empty" 0.3 (Distribution.fraction_empty d);
        check_float "full" 0.4 (Distribution.fraction_full d));
    Alcotest.test_case "total variation" `Quick (fun () ->
        let a = Distribution.of_vec (Vec.of_list [ 1.0; 0.0 ]) in
        let b = Distribution.of_vec (Vec.of_list [ 0.0; 1.0 ]) in
        check_float "tv" 1.0 (Distribution.total_variation a b);
        check_float "self" 0.0 (Distribution.total_variation a a));
    Alcotest.test_case "pp paper style" `Quick (fun () ->
        let d = Distribution.of_vec (Vec.of_list [ 0.5; 0.5 ]) in
        Alcotest.(check string) "style" "(.500, .500)" (Distribution.to_string d));
    Alcotest.test_case "utilization" `Quick (fun () ->
        let d = Distribution.of_vec (Vec.of_list [ 0.0; 0.0; 1.0 ]) in
        check_float "u" 1.0 (Distribution.utilization d ~capacity:2));
  ]

(* Fixed point + Newton + analytic agreement *)

let paper_theory_occupancies =
  (* Table 2's theoretical column. *)
  [ (1, 0.50); (2, 1.03); (3, 1.56); (4, 2.10); (5, 2.63); (6, 3.17);
    (7, 3.72); (8, 4.25) ]

let solver_tests =
  [
    Alcotest.test_case "m=1 analytic (1/2, 1/2)" `Quick (fun () ->
        let report =
          Fixed_point.solve (Pr_model.transform ~branching:4 ~capacity:1)
        in
        check_bool "half" true
          (Distribution.equal ~tol:1e-9 report.Fixed_point.distribution
             Analytic.quadtree_capacity_one));
    Alcotest.test_case "closed form general b" `Quick (fun () ->
        List.iter
          (fun b ->
            let report =
              Fixed_point.solve (Pr_model.transform ~branching:b ~capacity:1)
            in
            check_close 1e-9 "match"
              (Analytic.average_occupancy_capacity_one ~branching:b)
              (Distribution.average_occupancy report.Fixed_point.distribution))
          [ 2; 4; 8; 16 ]);
    Alcotest.test_case "capacity one closed form value" `Quick (fun () ->
        check_close 1e-12 "1/sqrt(2)" (1.0 /. sqrt 2.0)
          (Analytic.average_occupancy_capacity_one ~branching:2));
    Alcotest.test_case "reproduces Table 2 theory column" `Quick (fun () ->
        List.iter
          (fun (m, expected) ->
            let occ = Population.average_occupancy ~branching:4 ~capacity:m in
            check_close 0.01 "occ" expected occ)
          paper_theory_occupancies);
    Alcotest.test_case "reproduces Table 1 theory row m=3" `Quick (fun () ->
        let report =
          Fixed_point.solve (Pr_model.transform ~branching:4 ~capacity:3)
        in
        let v = Distribution.to_vec report.Fixed_point.distribution in
        List.iteri
          (fun i expected -> check_close 0.0005 "component" expected v.(i))
          [ 0.165; 0.320; 0.305; 0.210 ]);
    Alcotest.test_case "solution satisfies eT = ae" `Quick (fun () ->
        for m = 1 to 8 do
          let t = Pr_model.transform ~branching:4 ~capacity:m in
          let report = Fixed_point.solve t in
          check_bool "residual" true (report.Fixed_point.residual < 1e-10)
        done);
    Alcotest.test_case "solution strictly positive" `Quick (fun () ->
        for m = 1 to 8 do
          let report =
            Fixed_point.solve (Pr_model.transform ~branching:4 ~capacity:m)
          in
          check_bool "positive" true
            (Vec.all_positive
               (Distribution.to_vec report.Fixed_point.distribution))
        done);
    Alcotest.test_case "newton agrees with power iteration" `Quick (fun () ->
        List.iter
          (fun (b, m) ->
            let t = Pr_model.transform ~branching:b ~capacity:m in
            let p = Fixed_point.solve t in
            let n = Newton_model.solve t in
            check_bool "agree" true
              (Distribution.total_variation p.Fixed_point.distribution
                 n.Fixed_point.distribution
               < 1e-8))
          [ (2, 1); (2, 6); (4, 3); (4, 8); (8, 4) ]);
    Alcotest.test_case "newton residual system vanishes at solution" `Quick
      (fun () ->
        let t = Pr_model.transform ~branching:4 ~capacity:4 in
        let report = Fixed_point.solve t in
        let problem = Newton_model.residual_system t in
        let f =
          problem.Popan_numerics.Newton.residual
            (Distribution.to_vec report.Fixed_point.distribution)
        in
        check_bool "zero" true (Vec.norm_inf f < 1e-9));
    Alcotest.test_case "newton jacobian matches finite differences" `Quick
      (fun () ->
        let t = Pr_model.transform ~branching:4 ~capacity:3 in
        let problem = Newton_model.residual_system t in
        let x = Vec.of_list [ 0.2; 0.3; 0.3; 0.2 ] in
        let analytic =
          match problem.Popan_numerics.Newton.jacobian with
          | Some j -> j x
          | None -> Alcotest.fail "expected analytic jacobian"
        in
        let numeric =
          Popan_numerics.Newton.finite_difference_jacobian
            problem.Popan_numerics.Newton.residual x
        in
        check_bool "close" true
          (Matrix.approx_equal ~tol:1e-5 analytic numeric));
    Alcotest.test_case "eigenvalue is nodes-per-insertion" `Quick (fun () ->
        (* a = e0 + e1 + ... + rowsum_m e_m; check against the report. *)
        let t = Pr_model.transform ~branching:4 ~capacity:2 in
        let report = Fixed_point.solve t in
        let e = Distribution.to_vec report.Fixed_point.distribution in
        check_close 1e-9 "a" (Transform.normalizer t e)
          report.Fixed_point.eigenvalue);
    Alcotest.test_case "occupancy decreasing in branching" `Quick (fun () ->
        (* Bigger fanout scatters points more thinly. *)
        let occ b = Population.average_occupancy ~branching:b ~capacity:4 in
        check_bool "monotone" true (occ 2 > occ 4 && occ 4 > occ 8));
    Alcotest.test_case "utilization grows slowly with capacity" `Quick
      (fun () ->
        (* 0.500 at m=1, creeping up toward the bucketing-method plateau;
           always strictly between 0.4 and 0.7 in this range. *)
        let u m = Population.storage_utilization ~branching:4 ~capacity:m in
        check_bool "monotone" true (u 1 < u 4 && u 4 < u 8);
        for m = 1 to 8 do
          check_bool "band" true (u m > 0.4 && u m < 0.7)
        done);
    Alcotest.test_case "predicted nodes scales linearly" `Quick (fun () ->
        let n1 = Population.predicted_nodes ~branching:4 ~capacity:4 ~points:1000 in
        let n2 = Population.predicted_nodes ~branching:4 ~capacity:4 ~points:2000 in
        check_close 1e-6 "double" (2.0 *. n1) n2);
    Alcotest.test_case "theory_table covers requested capacities" `Quick
      (fun () ->
        let table = Population.theory_table ~branching:4 ~capacities:[ 1; 5 ] in
        check_int "len" 2 (List.length table);
        check_int "first" 1 (fst (List.hd table)));
    prop "fixed point exists and is positive for random valid transforms"
      QCheck2.Gen.(pair (int_range 2 8) (int_range 1 9))
      (fun (b, m) ->
        let report = Fixed_point.solve (Pr_model.transform ~branching:b ~capacity:m) in
        report.Fixed_point.residual < 1e-9
        && Vec.all_positive (Distribution.to_vec report.Fixed_point.distribution));
  ]

(* Monte-Carlo transform estimation *)

let mc_tests =
  [
    Alcotest.test_case "pr local model non-split rows exact" `Quick (fun () ->
        let model = Mc_transform.pr_point_model ~capacity:3 in
        let rng = Xoshiro.of_int_seed 40 in
        let row = Mc_transform.estimate_row ~trials:100 rng model ~occupancy:1 in
        check_float "unit shift" 1.0 row.(2);
        check_float "others" 0.0 row.(0));
    Alcotest.test_case "mc estimate close to analytic m=2" `Quick (fun () ->
        let rng = Xoshiro.of_int_seed 41 in
        let mc =
          Mc_transform.estimate ~trials:40_000 rng
            (Mc_transform.pr_point_model ~capacity:2)
        in
        let exact = Pr_model.transform ~branching:4 ~capacity:2 in
        for i = 0 to 2 do
          for j = 0 to 2 do
            check_close 0.05 "entry" (Transform.get exact i j)
              (Transform.get mc i j)
          done
        done);
    Alcotest.test_case "mc distribution close to analytic m=3" `Quick
      (fun () ->
        let rng = Xoshiro.of_int_seed 42 in
        let mc =
          Mc_transform.estimate ~trials:40_000 rng
            (Mc_transform.pr_point_model ~capacity:3)
        in
        let from_mc = (Fixed_point.solve mc).Fixed_point.distribution in
        let exact =
          (Fixed_point.solve (Pr_model.transform ~branching:4 ~capacity:3))
            .Fixed_point.distribution
        in
        check_bool "tv small" true
          (Distribution.total_variation from_mc exact < 0.01));
    Alcotest.test_case "occupancy out of range rejected" `Quick (fun () ->
        let model = Mc_transform.pr_point_model ~capacity:2 in
        check_bool "raises" true
          (match model.Mc_transform.simulate (Xoshiro.of_int_seed 0) ~occupancy:3 with
           | _ -> false
           | exception Invalid_argument _ -> true));
    Alcotest.test_case "trials validated" `Quick (fun () ->
        check_bool "raises" true
          (match
             Mc_transform.estimate_row ~trials:0 (Xoshiro.of_int_seed 0)
               (Mc_transform.pr_point_model ~capacity:1)
               ~occupancy:0
           with
           | _ -> false
           | exception Invalid_argument _ -> true));
  ]

(* PMR model *)

let pmr_model_tests =
  [
    Alcotest.test_case "default parameters sane" `Quick (fun () ->
        let p = Pmr_model.default_parameters ~threshold:4 in
        check_int "threshold" 4 p.Pmr_model.threshold;
        check_bool "types exceed threshold" true
          (p.Pmr_model.types > p.Pmr_model.threshold));
    Alcotest.test_case "non-split rows are unit shifts" `Quick (fun () ->
        let p = Pmr_model.default_parameters ~threshold:3 in
        let model = Pmr_model.local_model p in
        let produced =
          model.Mc_transform.simulate (Xoshiro.of_int_seed 43) ~occupancy:1
        in
        check_int "one node" 1 (Array.fold_left ( + ) 0 produced);
        check_int "at occupancy 2" 1 produced.(2));
    Alcotest.test_case "split rows produce four children" `Quick (fun () ->
        let p = Pmr_model.default_parameters ~threshold:3 in
        let model = Pmr_model.local_model p in
        let produced =
          model.Mc_transform.simulate (Xoshiro.of_int_seed 44) ~occupancy:3
        in
        check_int "four nodes" 4 (Array.fold_left ( + ) 0 produced));
    Alcotest.test_case "expected distribution is positive and plausible" `Quick
      (fun () ->
        let p = Pmr_model.default_parameters ~threshold:4 in
        let report =
          Pmr_model.expected_distribution ~trials:2000 (Xoshiro.of_int_seed 45) p
        in
        let d = report.Fixed_point.distribution in
        let avg = Distribution.average_occupancy d in
        check_bool "positive avg" true (avg > 0.5 && avg < 4.0));
    Alcotest.test_case "parameters validated" `Quick (fun () ->
        check_bool "types" true
          (match
             Pmr_model.local_model
               { Pmr_model.threshold = 4; relative_length = 0.5; types = 4 }
           with
           | _ -> false
           | exception Invalid_argument _ -> true));
  ]

(* Aging *)

(* A Table 3 row's leaves at capacity 1: every leaf is empty or full. *)
let profile_leaves (r : Depth_profile.row) =
  r.Depth_profile.empty_leaves +. r.Depth_profile.full_leaves

let aging_tests =
  [
    Alcotest.test_case "depth profile shows aging decay" `Quick (fun () ->
        let rows =
          Depth_profile.run (Workload.make ~points:1000 ~trials:1 ~seed:46 ())
        in
        (* Pick the two most populated depths: the shallower of them must
           have >= occupancy (larger blocks are older and fuller). *)
        let sorted =
          List.sort (fun a b -> compare (profile_leaves b) (profile_leaves a)) rows
        in
        match sorted with
        | a :: b :: _ ->
          let shallow, deep =
            if a.Depth_profile.depth < b.Depth_profile.depth then (a, b)
            else (b, a)
          in
          check_bool "aging" true
            (shallow.Depth_profile.occupancy >= deep.Depth_profile.occupancy)
        | _ -> Alcotest.fail "not enough depths");
    Alcotest.test_case "area weights increase with occupancy" `Quick (fun () ->
        let pts =
          Sampler.points (Xoshiro.of_int_seed 47) Sampler.Uniform 2000
        in
        let tree = Pr_quadtree.of_points ~capacity:4 pts in
        let w = Aging.area_weights tree in
        (* Aging: fuller nodes are bigger on average. *)
        check_bool "monotone-ish" true (w.(4) > w.(0)));
    Alcotest.test_case "corrected solve with unit weights equals plain" `Quick
      (fun () ->
        let t = Pr_model.transform ~branching:4 ~capacity:3 in
        let plain = Fixed_point.solve t in
        let corrected = Aging.corrected_solve t ~weights:(Vec.create 4 1.0) in
        check_bool "same" true
          (Distribution.total_variation plain.Fixed_point.distribution
             corrected.Fixed_point.distribution
           < 1e-8));
    Alcotest.test_case "upweighting full nodes lowers occupancy" `Quick
      (fun () ->
        let t = Pr_model.transform ~branching:4 ~capacity:2 in
        let plain =
          Distribution.average_occupancy
            (Fixed_point.solve t).Fixed_point.distribution
        in
        let corrected =
          Distribution.average_occupancy
            (Aging.corrected_solve t ~weights:(Vec.of_list [ 0.8; 1.0; 1.4 ]))
              .Fixed_point.distribution
        in
        check_bool "lower" true (corrected < plain));
    Alcotest.test_case "weight validation" `Quick (fun () ->
        let t = Pr_model.transform ~branching:4 ~capacity:1 in
        check_bool "dim" true
          (match Aging.corrected_solve t ~weights:(Vec.create 3 1.0) with
           | _ -> false
           | exception Invalid_argument _ -> true));
    Alcotest.test_case "mean_depth_profile averages trials" `Quick (fun () ->
        let workload = Workload.make ~points:500 ~trials:2 ~seed:1 () in
        let rows = Depth_profile.run workload in
        check_bool "has rows" true (rows <> []);
        List.iter
          (fun (r : Depth_profile.row) ->
            if profile_leaves r <= 0.0 || r.Depth_profile.occupancy < 0.0 then
              Alcotest.fail "bad row")
          rows;
        (* Each row holds per-trial means, so summed over the depths they
           give the trials' mean leaf count. *)
        let leaves =
          Workload.map_trials workload ~f:(fun _ pts ->
              float_of_int
                (Pr_arena.leaf_count
                   (Pr_arena.of_points_bulk ~max_depth:9 ~capacity:1 pts)))
        in
        check_float "mean leaf count"
          (List.fold_left ( +. ) 0.0 leaves /. 2.0)
          (List.fold_left (fun acc r -> acc +. profile_leaves r) 0.0 rows));
  ]

(* Phasing *)

let phasing_tests =
  [
    Alcotest.test_case "of_lists validates" `Quick (fun () ->
        check_bool "mismatch" true
          (match Phasing.of_lists [ 1.0 ] [ 1.0; 2.0 ] with
           | _ -> false
           | exception Invalid_argument _ -> true);
        check_bool "decreasing" true
          (match Phasing.of_lists [ 2.0; 1.0 ] [ 0.0; 0.0 ] with
           | _ -> false
           | exception Invalid_argument _ -> true));
    Alcotest.test_case "amplitude and mean" `Quick (fun () ->
        let s = Phasing.of_lists [ 1.0; 2.0; 4.0 ] [ 1.0; 3.0; 2.0 ] in
        check_float "amp" 2.0 (Phasing.amplitude s);
        check_float "mean" 2.0 (Phasing.mean s));
    Alcotest.test_case "local maxima of synthetic log-periodic wave" `Quick
      (fun () ->
        (* occupancy = sin(2 pi log4 n): maxima every factor of 4. *)
        let ns = List.init 40 (fun i -> 64.0 *. (4.0 ** (float_of_int i /. 8.0))) in
        let occ =
          List.map (fun n -> sin (2.0 *. Float.pi *. (log n /. log 4.0))) ns
        in
        let s = Phasing.of_lists ns occ in
        let ratios = Phasing.peak_ratios s in
        check_bool "some peaks" true (ratios <> []);
        List.iter (fun r -> check_close 0.3 "period 4" 4.0 r) ratios);
    Alcotest.test_case "damping ratio detects decay" `Quick (fun () ->
        let ns = List.init 32 (fun i -> float_of_int (i + 1)) in
        let occ =
          List.map
            (fun n -> exp (-0.2 *. n) *. sin n)
            ns
        in
        let s = Phasing.of_lists ns occ in
        check_bool "damped" true (Phasing.damping_ratio s < 0.5));
    Alcotest.test_case "damping ratio near 1 for sustained wave" `Quick
      (fun () ->
        let ns = List.init 32 (fun i -> float_of_int (i + 1)) in
        let occ = List.map (fun n -> sin n) ns in
        let s = Phasing.of_lists ns occ in
        let r = Phasing.damping_ratio s in
        check_bool "sustained" true (r > 0.8 && r < 1.3));
    Alcotest.test_case "detrended amplitude removes drift" `Quick (fun () ->
        (* Pure linear-in-log drift: residual amplitude ~ 0. *)
        let ns = List.init 20 (fun i -> 2.0 ** float_of_int i) in
        let occ = List.map (fun n -> 3.0 +. (0.5 *. log n)) ns in
        let s = Phasing.of_lists ns occ in
        check_bool "flat" true (Phasing.detrended_amplitude s < 1e-9));
    Alcotest.test_case "short series rejected for damping" `Quick (fun () ->
        let s = Phasing.of_lists [ 1.0; 2.0 ] [ 0.0; 1.0 ] in
        check_bool "raises" true
          (match Phasing.damping_ratio s with
           | _ -> false
           | exception Invalid_argument _ -> true));
  ]

(* Sensitivity *)

let sensitivity_tests =
  [
    Alcotest.test_case "derivative matches finite differences" `Quick
      (fun () ->
        let capacity = 3 in
        let base = Pr_model.transform ~branching:4 ~capacity in
        let s = Sensitivity.at base in
        let mu t =
          Distribution.average_occupancy
            (Fixed_point.solve t).Fixed_point.distribution
        in
        let grad = Sensitivity.occupancy_gradient s in
        let h = 1e-6 in
        (* Probe a few representative entries, including the splitting
           row. *)
        List.iter
          (fun (row, col) ->
            let perturbed = Transform.matrix base in
            Matrix.set perturbed row col (Matrix.get perturbed row col +. h);
            let fd = (mu (Transform.of_matrix perturbed) -. mu base) /. h in
            check_close 1e-3
              (Printf.sprintf "entry (%d,%d)" row col)
              fd (Matrix.get grad row col))
          [ (0, 1); (3, 0); (3, 2); (3, 3); (2, 3) ]);
    Alcotest.test_case "distribution derivative preserves total mass" `Quick
      (fun () ->
        (* e always sums to 1, so every derivative sums to 0. *)
        let s = Sensitivity.at (Pr_model.transform ~branching:4 ~capacity:4) in
        for row = 0 to 4 do
          for col = 0 to 4 do
            let de = Sensitivity.distribution_derivative s ~row ~col in
            check_close 1e-9 "sum zero" 0.0 (Vec.sum de)
          done
        done);
    Alcotest.test_case "fixed point exposed" `Quick (fun () ->
        let t = Pr_model.transform ~branching:4 ~capacity:2 in
        let s = Sensitivity.at t in
        check_bool "same" true
          (Distribution.equal ~tol:1e-9 (Sensitivity.distribution s)
             (Fixed_point.solve t).Fixed_point.distribution));
    Alcotest.test_case "error bound scales linearly" `Quick (fun () ->
        let s = Sensitivity.at (Pr_model.transform ~branching:4 ~capacity:2) in
        let b1 = Sensitivity.occupancy_error_bound s ~entry_error:0.01 in
        let b2 = Sensitivity.occupancy_error_bound s ~entry_error:0.02 in
        check_close 1e-12 "double" (2.0 *. b1) b2;
        check_bool "positive" true (b1 > 0.0));
    Alcotest.test_case "index validation" `Quick (fun () ->
        let s = Sensitivity.at (Pr_model.transform ~branching:4 ~capacity:1) in
        check_bool "raises" true
          (match Sensitivity.distribution_derivative s ~row:2 ~col:0 with
           | _ -> false
           | exception Invalid_argument _ -> true));
    Alcotest.test_case "mc error bound is informative for pmr" `Quick
      (fun () ->
        (* With 5000 MC trials, per-entry standard error ~ sqrt(p(1-p)*4/5000)
           <= ~0.03; the induced occupancy error bound should be well
           under one point of occupancy. *)
        let rng = Xoshiro.of_int_seed 50 in
        let p = Pmr_model.default_parameters ~threshold:3 in
        let transform = Pmr_model.transform ~trials:5000 rng p in
        let s = Sensitivity.at transform in
        let bound = Sensitivity.occupancy_error_bound s ~entry_error:0.005 in
        check_bool "bounded" true (bound < 1.0));
  ]

(* Dynamics *)

let dynamics_tests =
  [
    Alcotest.test_case "trajectory converges to the fixed point" `Quick
      (fun () ->
        let t = Pr_model.transform ~branching:4 ~capacity:4 in
        let distances =
          Dynamics.distance_trajectory ~steps:200 t
            ~start:(Distribution.uniform 5)
        in
        let last = List.nth distances (List.length distances - 1) in
        check_bool "converged" true (last < 1e-8);
        (* Distances never blow up. *)
        List.iter (fun d -> check_bool "bounded" true (d <= 1.0)) distances);
    Alcotest.test_case "m=1 spectrum is (3, 1)" `Quick (fun () ->
        (* T = [[0,1],[3,2]] has eigenvalues 3 and -1. *)
        let s = Dynamics.spectrum (Pr_model.transform ~branching:4 ~capacity:1) in
        check_close 1e-6 "lambda1" 3.0 s.Dynamics.dominant;
        check_close 1e-3 "lambda2" 1.0 s.Dynamics.subdominant_modulus;
        check_close 1e-3 "rate" (1.0 /. 3.0) s.Dynamics.mixing_rate);
    Alcotest.test_case "mixing rate predicts the decay slope" `Quick (fun () ->
        let t = Pr_model.transform ~branching:4 ~capacity:3 in
        let s = Dynamics.spectrum t in
        let distances =
          Array.of_list
            (Dynamics.distance_trajectory ~steps:60 t
               ~start:(Distribution.uniform 4))
        in
        (* Empirical per-step ratio over a late window vs predicted. *)
        let ratio k = distances.(k + 1) /. distances.(k) in
        let empirical = (ratio 40 +. ratio 45 +. ratio 50) /. 3.0 in
        check_close 0.05 "rate" s.Dynamics.mixing_rate empirical);
    Alcotest.test_case "mixing rate below one for all capacities" `Quick
      (fun () ->
        for m = 1 to 8 do
          let s = Dynamics.spectrum (Pr_model.transform ~branching:4 ~capacity:m) in
          check_bool "contracting" true
            (s.Dynamics.mixing_rate > 0.0 && s.Dynamics.mixing_rate < 1.0)
        done);
    Alcotest.test_case "steps_to_converge consistent" `Quick (fun () ->
        let t = Pr_model.transform ~branching:4 ~capacity:2 in
        match Dynamics.steps_to_converge t ~tolerance:1e-6 with
        | None -> Alcotest.fail "expected finite mixing"
        | Some k ->
          check_bool "positive" true (k > 0);
          (* After k steps the distance really has dropped by ~1e-6. *)
          let distances =
            Dynamics.distance_trajectory ~steps:(k + 5) t
              ~start:(Distribution.uniform 3)
          in
          let first = List.nth distances 1 in
          let last = List.nth distances (List.length distances - 1) in
          check_bool "achieved" true (last /. first < 1e-4));
    Alcotest.test_case "tolerance validated" `Quick (fun () ->
        let t = Pr_model.transform ~branching:4 ~capacity:1 in
        check_bool "raises" true
          (match Dynamics.steps_to_converge t ~tolerance:2.0 with
           | _ -> false
           | exception Invalid_argument _ -> true));
  ]

let () =
  Alcotest.run "popan_core"
    [
      ("transform", transform_tests);
      ("pr_model", pr_model_tests);
      ("distribution", distribution_tests);
      ("solvers", solver_tests);
      ("mc_transform", mc_tests);
      ("pmr_model", pmr_model_tests);
      ("aging", aging_tests);
      ("sensitivity", sensitivity_tests);
      ("dynamics", dynamics_tests);
      ("phasing", phasing_tests);
    ]
