(* Tests for the hierarchical structures: PR quadtree, bintree,
   d-dimensional PR tree, point quadtree, PMR quadtree, extendible
   hashing, grid file, and the shared occupancy statistics. *)

open Popan_trees
module Point = Popan_geom.Point
module Box = Popan_geom.Box
module Segment = Popan_geom.Segment
module Point_nd = Popan_geom.Point_nd
module Xoshiro = Popan_rng.Xoshiro
module Sampler = Popan_rng.Sampler

let check_float = Alcotest.(check (float 1e-9))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let prop ?(count = 60) name gen law =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen law)

let uniform_points seed n =
  Sampler.points (Xoshiro.of_int_seed seed) Sampler.Uniform n

let no_violations name violations =
  Alcotest.(check (list string)) name [] violations

(* PR quadtree *)

let pr_tests =
  [
    Alcotest.test_case "empty tree is one empty leaf" `Quick (fun () ->
        let t = Pr_quadtree.create ~capacity:2 () in
        check_int "leaves" 1 (Pr_quadtree.leaf_count t);
        check_int "size" 0 (Pr_quadtree.size t);
        check_bool "empty" true (Pr_quadtree.is_empty t));
    Alcotest.test_case "create validates" `Quick (fun () ->
        Alcotest.check_raises "cap" (Invalid_argument "Pr_quadtree.create: capacity < 1")
          (fun () -> ignore (Pr_quadtree.create ~capacity:0 ())));
    Alcotest.test_case "insert under capacity keeps one leaf" `Quick (fun () ->
        let t =
          Pr_quadtree.of_points ~capacity:3
            [ Point.make 0.1 0.1; Point.make 0.9 0.9; Point.make 0.5 0.2 ]
        in
        check_int "leaves" 1 (Pr_quadtree.leaf_count t);
        check_int "size" 3 (Pr_quadtree.size t));
    Alcotest.test_case "overflow splits into quadrants" `Quick (fun () ->
        (* Four points in distinct quadrants, capacity 1: one split. *)
        let t =
          Pr_quadtree.of_points ~capacity:1
            [ Point.make 0.1 0.9; Point.make 0.9 0.9; Point.make 0.1 0.1;
              Point.make 0.9 0.1 ]
        in
        check_int "leaves" 4 (Pr_quadtree.leaf_count t);
        check_int "height" 1 (Pr_quadtree.height t);
        check_int "internal" 1 (Pr_quadtree.internal_count t));
    Alcotest.test_case "paper figure 1 shape" `Quick (fun () ->
        (* Two points in the same quadrant force recursive splitting. *)
        let t =
          Pr_quadtree.of_points ~capacity:1
            [ Point.make 0.1 0.1; Point.make 0.2 0.2 ]
        in
        check_bool "deeper" true (Pr_quadtree.height t >= 2);
        no_violations "inv" (Pr_quadtree.check_invariants t));
    Alcotest.test_case "insert outside bounds rejected" `Quick (fun () ->
        let t = Pr_quadtree.create ~capacity:1 () in
        Alcotest.check_raises "out"
          (Invalid_argument "Pr_quadtree.insert: point outside bounds")
          (fun () -> ignore (Pr_quadtree.insert t (Point.make 1.5 0.5))));
    Alcotest.test_case "mem finds inserted points" `Quick (fun () ->
        let pts = uniform_points 1 100 in
        let t = Pr_quadtree.of_points ~capacity:2 pts in
        List.iter
          (fun p -> if not (Pr_quadtree.mem t p) then Alcotest.fail "missing")
          pts;
        check_bool "absent" false (Pr_quadtree.mem t (Point.make 0.123456 0.654321)));
    Alcotest.test_case "max_depth truncates splitting" `Quick (fun () ->
        (* Duplicate points cannot be separated: the depth cap takes over. *)
        let p = Point.make 0.3 0.3 in
        let t =
          Pr_quadtree.of_points ~capacity:1 ~max_depth:5 [ p; p; p ]
        in
        check_int "size" 3 (Pr_quadtree.size t);
        check_bool "height capped" true (Pr_quadtree.height t <= 5);
        no_violations "inv" (Pr_quadtree.check_invariants t));
    Alcotest.test_case "persistence: insert leaves old tree intact" `Quick
      (fun () ->
        let t0 = Pr_quadtree.of_points ~capacity:1 (uniform_points 2 50) in
        let size0 = Pr_quadtree.size t0 in
        let leaves0 = Pr_quadtree.leaf_count t0 in
        let _t1 = Pr_quadtree.insert t0 (Point.make 0.5 0.5) in
        check_int "size" size0 (Pr_quadtree.size t0);
        check_int "leaves" leaves0 (Pr_quadtree.leaf_count t0));
    Alcotest.test_case "remove undoes insert" `Quick (fun () ->
        let pts = uniform_points 3 60 in
        let t = Pr_quadtree.of_points ~capacity:2 pts in
        let t' = List.fold_left Pr_quadtree.remove t pts in
        check_int "empty" 0 (Pr_quadtree.size t');
        check_int "single leaf" 1 (Pr_quadtree.leaf_count t'));
    Alcotest.test_case "remove absent is identity" `Quick (fun () ->
        let t = Pr_quadtree.of_points ~capacity:1 (uniform_points 4 10) in
        let t' = Pr_quadtree.remove t (Point.make 0.111 0.222) in
        check_int "size" (Pr_quadtree.size t) (Pr_quadtree.size t'));
    Alcotest.test_case "remove merges collapsible blocks" `Quick (fun () ->
        let a = Point.make 0.1 0.1 and b = Point.make 0.2 0.2 in
        let t = Pr_quadtree.of_points ~capacity:1 [ a; b ] in
        let t' = Pr_quadtree.remove t b in
        check_int "merged back" 1 (Pr_quadtree.leaf_count t');
        no_violations "inv" (Pr_quadtree.check_invariants t'));
    Alcotest.test_case "query_box matches filter" `Quick (fun () ->
        let pts = uniform_points 5 200 in
        let t = Pr_quadtree.of_points ~capacity:4 pts in
        let window = Box.make ~xmin:0.2 ~ymin:0.3 ~xmax:0.7 ~ymax:0.8 in
        let got =
          List.sort Point.compare (Pr_quadtree.query_box t window)
        in
        let expected =
          List.sort Point.compare
            (List.filter (Box.contains window) pts)
        in
        check_bool "same" true (got = expected));
    Alcotest.test_case "nearest matches brute force" `Quick (fun () ->
        let pts = uniform_points 6 150 in
        let t = Pr_quadtree.of_points ~capacity:3 pts in
        let rng = Xoshiro.of_int_seed 60 in
        for _ = 1 to 50 do
          let q = Point.make (Xoshiro.float rng) (Xoshiro.float rng) in
          let best_brute =
            List.fold_left
              (fun acc p ->
                match acc with
                | None -> Some p
                | Some b ->
                  if Point.distance_sq q p < Point.distance_sq q b then Some p
                  else acc)
              None pts
          in
          match (Pr_quadtree.nearest t q, best_brute) with
          | Some a, Some b ->
            if Point.distance_sq q a <> Point.distance_sq q b then
              Alcotest.fail "nearest mismatch"
          | _ -> Alcotest.fail "missing result"
        done);
    Alcotest.test_case "nearest of empty is None" `Quick (fun () ->
        check_bool "none" true
          (Pr_quadtree.nearest (Pr_quadtree.create ~capacity:1 ())
             (Point.make 0.5 0.5)
           = None));
    Alcotest.test_case "histogram counts all leaves" `Quick (fun () ->
        let t = Pr_quadtree.of_points ~capacity:3 (uniform_points 7 500) in
        let hist = Pr_quadtree.occupancy_histogram t in
        check_int "len" 4 (Array.length hist);
        check_int "total" (Pr_quadtree.leaf_count t) (Array.fold_left ( + ) 0 hist));
    Alcotest.test_case "average occupancy consistent" `Quick (fun () ->
        let t = Pr_quadtree.of_points ~capacity:2 (uniform_points 8 300) in
        check_float "avg"
          (float_of_int (Pr_quadtree.size t)
           /. float_of_int (Pr_quadtree.leaf_count t))
          (Pr_quadtree.average_occupancy t));
    Alcotest.test_case "occupancy_by_depth sums match" `Quick (fun () ->
        let t = Pr_quadtree.of_points ~capacity:1 (uniform_points 9 400) in
        let rows = Pr_quadtree.occupancy_by_depth t in
        let leaves = List.fold_left (fun acc (_, (l, _)) -> acc + l) 0 rows in
        let pts = List.fold_left (fun acc (_, (_, p)) -> acc + p) 0 rows in
        check_int "leaves" (Pr_quadtree.leaf_count t) leaves;
        check_int "points" (Pr_quadtree.size t) pts);
    Alcotest.test_case "custom bounds work" `Quick (fun () ->
        let bounds = Box.make ~xmin:(-10.0) ~ymin:(-10.0) ~xmax:10.0 ~ymax:10.0 in
        let t =
          Pr_quadtree.of_points ~bounds ~capacity:1
            [ Point.make (-5.0) 3.0; Point.make 7.0 (-2.0) ]
        in
        check_int "size" 2 (Pr_quadtree.size t);
        no_violations "inv" (Pr_quadtree.check_invariants t));
    Alcotest.test_case "bulk load equals incremental build" `Quick (fun () ->
        let pts = uniform_points 61 300 in
        let incremental = Pr_quadtree.of_points ~capacity:3 pts in
        let bulk = Pr_quadtree.of_points_bulk ~capacity:3 pts in
        check_bool "identical" true
          (Pr_quadtree.equal_structure incremental bulk));
    Alcotest.test_case "insertion order does not change the decomposition"
      `Quick (fun () ->
        let pts = uniform_points 62 200 in
        let forward = Pr_quadtree.of_points ~capacity:2 pts in
        let backward = Pr_quadtree.of_points ~capacity:2 (List.rev pts) in
        check_bool "canonical" true
          (Pr_quadtree.equal_structure forward backward));
    Alcotest.test_case "equal_structure detects differences" `Quick (fun () ->
        let pts = uniform_points 63 50 in
        let a = Pr_quadtree.of_points ~capacity:2 pts in
        let b = Pr_quadtree.of_points ~capacity:2 (List.tl pts) in
        check_bool "differ" false (Pr_quadtree.equal_structure a b);
        let c = Pr_quadtree.of_points ~capacity:3 pts in
        check_bool "params differ" false (Pr_quadtree.equal_structure a c));
    Alcotest.test_case "k_nearest matches brute force" `Quick (fun () ->
        let pts = uniform_points 64 120 in
        let t = Pr_quadtree.of_points ~capacity:3 pts in
        let q = Point.make 0.42 0.58 in
        let by_distance =
          List.sort
            (fun a b ->
              Float.compare (Point.distance_sq q a) (Point.distance_sq q b))
            pts
        in
        List.iter
          (fun k ->
            let got = Pr_quadtree.k_nearest t k q in
            check_int "count" (min k 120) (List.length got);
            List.iteri
              (fun i p ->
                if
                  Point.distance_sq q p
                  <> Point.distance_sq q (List.nth by_distance i)
                then Alcotest.fail "distance order mismatch")
              got)
          [ 0; 1; 5; 20 ]);
    Alcotest.test_case "k_nearest with k exceeding size" `Quick (fun () ->
        let t = Pr_quadtree.of_points ~capacity:1 (uniform_points 65 5) in
        check_int "all" 5 (List.length (Pr_quadtree.k_nearest t 50 (Point.make 0.5 0.5))));
    Alcotest.test_case "count_in_box equals query length" `Quick (fun () ->
        let t = Pr_quadtree.of_points ~capacity:4 (uniform_points 66 250) in
        let window = Box.make ~xmin:0.1 ~ymin:0.2 ~xmax:0.6 ~ymax:0.9 in
        check_int "count"
          (List.length (Pr_quadtree.query_box t window))
          (Pr_quadtree.count_in_box t window));
    Alcotest.test_case "iter_points visits every point once" `Quick (fun () ->
        let pts = uniform_points 67 90 in
        let t = Pr_quadtree.of_points ~capacity:2 pts in
        let visited = ref 0 in
        Pr_quadtree.iter_points t ~f:(fun _ -> incr visited);
        check_int "count" 90 !visited);
    Alcotest.test_case "pp_structure sketches the tree" `Quick (fun () ->
        let t =
          Pr_quadtree.of_points ~capacity:1
            [ Point.make 0.1 0.9; Point.make 0.9 0.1 ]
        in
        let s = Format.asprintf "%a" Pr_quadtree.pp_structure t in
        check_bool "root" true (String.length s > 0);
        check_bool "mentions NW" true
          (String.split_on_char '\n' s
           |> List.exists (fun line ->
                  String.length line > 0
                  && String.trim line <> ""
                  && (let t = String.trim line in
                      String.length t >= 2 && String.sub t 0 2 = "NW"))));
    Alcotest.test_case "leaf_at finds the containing leaf" `Quick (fun () ->
        let pts = uniform_points 120 200 in
        let t = Pr_quadtree.of_points ~capacity:3 pts in
        List.iter
          (fun p ->
            let _, box, occupants = Pr_quadtree.leaf_at t p in
            if not (Box.contains box p) then Alcotest.fail "wrong leaf";
            if not (List.exists (Point.equal p) occupants) then
              Alcotest.fail "point missing from its leaf")
          pts);
    Alcotest.test_case "neighbors share the expected edge" `Quick (fun () ->
        let t = Pr_quadtree.of_points ~capacity:1 (uniform_points 121 300) in
        let probe = Point.make 0.31 0.67 in
        let _, box, _ = Pr_quadtree.leaf_at t probe in
        List.iter
          (fun direction ->
            List.iter
              (fun (_, nbox, _) ->
                let touching =
                  match direction with
                  | Pr_quadtree.East -> nbox.Box.xmin = box.Box.xmax
                  | Pr_quadtree.West -> nbox.Box.xmax = box.Box.xmin
                  | Pr_quadtree.North -> nbox.Box.ymin = box.Box.ymax
                  | Pr_quadtree.South -> nbox.Box.ymax = box.Box.ymin
                in
                if not touching then Alcotest.fail "neighbor not on the edge")
              (Pr_quadtree.neighbors t ~box ~direction))
          [ Pr_quadtree.East; Pr_quadtree.West; Pr_quadtree.North;
            Pr_quadtree.South ]);
    Alcotest.test_case "no neighbors beyond the universe" `Quick (fun () ->
        let t = Pr_quadtree.create ~capacity:1 () in
        check_int "east of root" 0
          (List.length
             (Pr_quadtree.neighbors t ~box:Box.unit ~direction:Pr_quadtree.East)));
    Alcotest.test_case "neighbors rejects non-leaf boxes" `Quick (fun () ->
        let t = Pr_quadtree.of_points ~capacity:1 (uniform_points 122 50) in
        check_bool "raises" true
          (match
             Pr_quadtree.neighbors t ~box:Box.unit ~direction:Pr_quadtree.East
           with
           | _ -> false
           | exception Invalid_argument _ -> true));
    Alcotest.test_case "neighbor relation is symmetric" `Quick (fun () ->
        let t = Pr_quadtree.of_points ~capacity:1 (uniform_points 123 200) in
        let _, box, _ = Pr_quadtree.leaf_at t (Point.make 0.52 0.48) in
        List.iter
          (fun (direction, opposite) ->
            List.iter
              (fun (_, nbox, _) ->
                let back =
                  Pr_quadtree.neighbors t ~box:nbox ~direction:opposite
                in
                if not (List.exists (fun (_, b, _) -> Box.equal b box) back)
                then Alcotest.fail "asymmetric neighbor relation")
              (Pr_quadtree.neighbors t ~box ~direction))
          [ (Pr_quadtree.East, Pr_quadtree.West);
            (Pr_quadtree.North, Pr_quadtree.South) ]);
    prop "invariants hold after random inserts"
      QCheck2.Gen.(pair (int_range 0 10_000) (int_range 1 6))
      (fun (seed, capacity) ->
        let pts = uniform_points seed 200 in
        let t = Pr_quadtree.of_points ~capacity pts in
        Pr_quadtree.check_invariants t = [] && Pr_quadtree.size t = 200);
    prop "invariants hold under mixed insert/remove"
      QCheck2.Gen.(int_range 0 10_000)
      (fun seed ->
        let rng = Xoshiro.of_int_seed seed in
        let live = ref [] in
        let t = ref (Pr_quadtree.create ~capacity:2 ()) in
        for _ = 1 to 150 do
          if !live <> [] && Xoshiro.float rng < 0.4 then begin
            let victim = List.nth !live (Xoshiro.int rng (List.length !live)) in
            t := Pr_quadtree.remove !t victim;
            live := List.tl (List.filter (fun p -> not (Point.equal p victim)) !live @ [victim])
          end
          else begin
            let p = Point.make (Xoshiro.float rng) (Xoshiro.float rng) in
            t := Pr_quadtree.insert !t p;
            live := p :: !live
          end
        done;
        Pr_quadtree.check_invariants !t = []);
  ]

(* Arena-backed builder *)

let pr_arena_tests =
  [
    Alcotest.test_case "empty arena statistics" `Quick (fun () ->
        let a = Pr_arena.create ~capacity:3 () in
        check_int "size" 0 (Pr_arena.size a);
        check_int "leaves" 1 (Pr_arena.leaf_count a);
        check_int "internals" 0 (Pr_arena.internal_count a);
        check_int "height" 0 (Pr_arena.height a);
        check_bool "empty" true (Pr_arena.is_empty a);
        Alcotest.(check (array int)) "hist" [| 1; 0; 0; 0 |]
          (Pr_arena.occupancy_histogram a));
    Alcotest.test_case "create validates" `Quick (fun () ->
        Alcotest.check_raises "cap"
          (Invalid_argument "Pr_arena.create: capacity < 1") (fun () ->
            ignore (Pr_arena.create ~capacity:0 ()));
        Alcotest.check_raises "reserve"
          (Invalid_argument "Pr_arena.create: reserve < 0") (fun () ->
            ignore (Pr_arena.create ~capacity:1 ~reserve:(-1) ()));
        (* The 2^-42 grid is the deepest the integer descents reach. *)
        Alcotest.check_raises "depth past the fine grid"
          (Invalid_argument "Pr_arena.create: max_depth > 42") (fun () ->
            ignore (Pr_arena.create ~max_depth:43 ~capacity:1 ()));
        check_int "depth 42 accepted" 42
          (Pr_arena.max_depth (Pr_arena.create ~max_depth:42 ~capacity:1 ())));
    Alcotest.test_case "insert outside bounds rejected" `Quick (fun () ->
        let a = Pr_arena.create ~capacity:1 () in
        Alcotest.check_raises "out"
          (Invalid_argument "Pr_arena.insert: point outside bounds")
          (fun () -> Pr_arena.insert a (Point.make 1.5 0.5)));
    Alcotest.test_case "freeze of empty equals empty tree" `Quick (fun () ->
        let a = Pr_arena.create ~capacity:2 () in
        check_bool "equal" true
          (Pr_quadtree.equal_structure (Pr_arena.freeze a)
             (Pr_quadtree.create ~capacity:2 ())));
    Alcotest.test_case "max_depth truncates and clamps histogram" `Quick
      (fun () ->
        let p = Point.make 0.3 0.3 in
        let a = Pr_arena.of_points ~capacity:1 ~max_depth:5 [ p; p; p ] in
        check_int "size" 3 (Pr_arena.size a);
        check_bool "height capped" true (Pr_arena.height a <= 5);
        let hist = Pr_arena.occupancy_histogram a in
        check_int "clamped cell" 1 hist.(1);
        no_violations "inv" (Pr_arena.check_invariants a));
    Alcotest.test_case "frozen snapshot survives further growth" `Quick
      (fun () ->
        (* freeze copies out of the arrays, so later inserts (which may
           grow and replace the very arrays) cannot disturb it. *)
        let pts = uniform_points 130 200 in
        let first, rest =
          ( List.filteri (fun i _ -> i < 100) pts,
            List.filteri (fun i _ -> i >= 100) pts )
        in
        let a = Pr_arena.of_points ~capacity:2 first in
        let snapshot = Pr_quadtree.of_points ~capacity:2 first in
        let frozen = Pr_arena.freeze a in
        Pr_arena.insert_all a rest;
        check_bool "snapshot intact" true
          (Pr_quadtree.equal_structure frozen snapshot);
        check_bool "arena moved on" true
          (Pr_quadtree.equal_structure (Pr_arena.freeze a)
             (Pr_quadtree.of_points ~capacity:2 pts)));
    Alcotest.test_case "thaw resumes a persistent build" `Quick (fun () ->
        let pts = uniform_points 131 150 in
        let first, rest =
          ( List.filteri (fun i _ -> i < 75) pts,
            List.filteri (fun i _ -> i >= 75) pts )
        in
        let a = Pr_arena.thaw (Pr_quadtree.of_points ~capacity:3 first) in
        Pr_arena.insert_all a rest;
        check_bool "same tree" true
          (Pr_quadtree.equal_structure (Pr_arena.freeze a)
             (Pr_quadtree.of_points ~capacity:3 pts));
        (* The arena covers the unit square only. *)
        Alcotest.check_raises "non-unit bounds"
          (Invalid_argument "Pr_arena.thaw: bounds are not the unit square")
          (fun () ->
            ignore
              (Pr_arena.thaw
                 (Pr_quadtree.of_points
                    ~bounds:(Box.make ~xmin:0.0 ~ymin:0.0 ~xmax:2.0 ~ymax:2.0)
                    ~capacity:3 first))));
    Alcotest.test_case "fold_leaves counts are free and correct" `Quick
      (fun () ->
        let a = Pr_arena.of_points ~capacity:4 (uniform_points 132 300) in
        Pr_arena.fold_leaves a ~init:()
          ~f:(fun () ~depth:_ ~box ~points ~count ->
            check_int "count" (List.length points) count;
            List.iter
              (fun p ->
                if not (Box.contains box p) then
                  Alcotest.fail "point outside its leaf block")
              points));
    Alcotest.test_case "fold_leaves visits leaves like Pr_quadtree" `Quick
      (fun () ->
        (* Same traversal order (NW, NE, SW, SE), depths, boxes and
           counts — Depth_profile depends on the leaf sequence. *)
        let pts = uniform_points 133 400 in
        let via_arena =
          List.rev
            (Pr_arena.fold_leaves (Pr_arena.of_points ~capacity:3 pts) ~init:[]
               ~f:(fun acc ~depth ~box ~points:_ ~count -> (depth, box, count) :: acc))
        in
        let via_tree =
          List.rev
            (Pr_quadtree.fold_leaves (Pr_quadtree.of_points ~capacity:3 pts)
               ~init:[] ~f:(fun acc ~depth ~box ~points ->
                 (depth, box, List.length points) :: acc))
        in
        check_bool "same leaf sequence" true (via_arena = via_tree));
    prop "freeze equals of_points for any point set and capacity"
      QCheck2.Gen.(pair (int_range 0 10_000) (int_range 1 6))
      (fun (seed, capacity) ->
        let pts = uniform_points seed 250 in
        let a = Pr_arena.of_points ~capacity pts in
        let frozen = Pr_arena.freeze a in
        Pr_quadtree.equal_structure frozen (Pr_quadtree.of_points ~capacity pts)
        && Pr_quadtree.check_invariants frozen = []);
    prop "bulk build equals incremental build (and Pr_quadtree)"
      QCheck2.Gen.(triple (int_range 0 10_000) (int_range 1 6) (int_range 2 12))
      (fun (seed, capacity, max_depth) ->
        let pts = uniform_points seed 250 in
        let bulk = Pr_arena.of_points_bulk ~capacity ~max_depth pts in
        let inc = Pr_arena.of_points ~capacity ~max_depth pts in
        let reference = Pr_quadtree.of_points ~capacity ~max_depth pts in
        Pr_quadtree.equal_structure (Pr_arena.freeze bulk)
          (Pr_arena.freeze inc)
        && Pr_quadtree.equal_structure (Pr_arena.freeze bulk) reference
        && Pr_arena.leaf_count bulk = Pr_arena.leaf_count inc
        && Pr_arena.internal_count bulk = Pr_arena.internal_count inc
        && Pr_arena.height bulk = Pr_arena.height inc
        && Pr_arena.occupancy_histogram bulk
           = Pr_arena.occupancy_histogram inc
        && Pr_arena.check_invariants bulk = []);
    prop "incremental statistics match the frozen tree's recomputation"
      QCheck2.Gen.(pair (int_range 0 10_000) (int_range 1 8))
      (fun (seed, capacity) ->
        let pts = uniform_points seed 300 in
        let a = Pr_arena.of_points ~capacity pts in
        let frozen = Pr_arena.freeze a in
        Pr_arena.size a = Pr_quadtree.size frozen
        && Pr_arena.leaf_count a = Pr_quadtree.leaf_count frozen
        && Pr_arena.internal_count a = Pr_quadtree.internal_count frozen
        && Pr_arena.height a = Pr_quadtree.height frozen
        && Pr_arena.occupancy_histogram a
           = Pr_quadtree.occupancy_histogram frozen
        && Pr_arena.average_occupancy a = Pr_quadtree.average_occupancy frozen
        && Pr_arena.check_invariants a = []);
    prop "thaw then freeze is the identity"
      QCheck2.Gen.(pair (int_range 0 5000) (int_range 1 5))
      (fun (seed, capacity) ->
        let t = Pr_quadtree.of_points ~capacity (uniform_points seed 150) in
        let a = Pr_arena.thaw t in
        Pr_quadtree.equal_structure t (Pr_arena.freeze a)
        && Pr_arena.leaf_count a = Pr_quadtree.leaf_count t
        && Pr_arena.height a = Pr_quadtree.height t
        && Pr_arena.check_invariants a = []);
    Alcotest.test_case "freeze/thaw at max_depth saturation, duplicates"
      `Quick (fun () ->
        let p = Point.make 0.3 0.3 in
        let dups = [ p; p; p; p; p ] in
        let a = Pr_arena.of_points ~capacity:1 ~max_depth:3 dups in
        check_int "height capped" 3 (Pr_arena.height a);
        check_int "size" 5 (Pr_arena.size a);
        no_violations "arena inv" (Pr_arena.check_invariants a);
        let hist = Pr_arena.occupancy_histogram a in
        check_int "clamped cell" 1 (hist.(Array.length hist - 1));
        let frozen = Pr_arena.freeze a in
        check_bool "matches persistent build" true
          (Pr_quadtree.equal_structure frozen
             (Pr_quadtree.of_points ~capacity:1 ~max_depth:3 dups));
        check_bool "bulk agrees on the saturated shape" true
          (Pr_quadtree.equal_structure frozen
             (Pr_arena.freeze
                (Pr_arena.of_points_bulk ~capacity:1 ~max_depth:3 dups)));
        let a' = Pr_arena.thaw frozen in
        Pr_arena.insert_all a' [ p; p ];
        check_int "still capped" 3 (Pr_arena.height a');
        check_int "grown size" 7 (Pr_arena.size a');
        no_violations "thawed inv" (Pr_arena.check_invariants a');
        check_bool "frozen snapshot unaffected" true
          (Pr_quadtree.size frozen = 5));
    Alcotest.test_case "depth limit beyond the Morton resolution" `Quick
      (fun () ->
        (* max_depth > Morton.bits: near-coincident points separated
           only at depth > 21, below the hi Morton word's bits, must
           still match the reference. *)
        let base = Point.make 0.123456789 0.987654321 in
        let eps = ldexp 1.0 (-24) in
        let pts =
          [ base; Point.make (base.Point.x +. eps) (base.Point.y +. eps);
            base; Point.make 0.7 0.2 ]
        in
        let reference = Pr_quadtree.of_points ~capacity:1 ~max_depth:30 pts in
        let inc = Pr_arena.of_points ~capacity:1 ~max_depth:30 pts in
        let bulk = Pr_arena.of_points_bulk ~capacity:1 ~max_depth:30 pts in
        check_bool "incremental matches" true
          (Pr_quadtree.equal_structure (Pr_arena.freeze inc) reference);
        check_bool "bulk matches" true
          (Pr_quadtree.equal_structure (Pr_arena.freeze bulk) reference);
        check_bool "went below the code bits" true (Pr_arena.height inc > 21);
        no_violations "inv inc" (Pr_arena.check_invariants inc);
        no_violations "inv bulk" (Pr_arena.check_invariants bulk));
  ]

(* Churn: the differential oracle for delete/update.

   A reference interpreter applies the same random insert/delete/update
   sequence to a plain multiset; afterwards the frozen arena must equal
   a fresh build over the survivors (the PR decomposition is canonical,
   so eager merging has no history to hide), the O(1) statistics must
   match a from-scratch recount, and [check_invariants] must hold —
   free lists, per-depth counts and the merge invariant included. *)

(* Apply [ops] random operations to [arena] and, in lockstep, to a
   growable survivor array. Deletes and updates pick a uniform live
   index (swap-remove), so deletes always target a stored point;
   inserts draw fresh uniform points. Returns the survivors. *)
let churn_arena arena rng ~ops ~survivors =
  let live = ref (Array.of_list survivors) in
  let n = ref (Array.length !live) in
  let push p =
    if !n >= Array.length !live then begin
      let bigger = Array.make (max 16 (2 * Array.length !live)) p in
      Array.blit !live 0 bigger 0 !n;
      live := bigger
    end;
    !live.(!n) <- p;
    incr n
  in
  let take i =
    let p = !live.(i) in
    decr n;
    !live.(i) <- !live.(!n);
    p
  in
  for _ = 1 to ops do
    let u = Xoshiro.float rng in
    if u < 0.3 || !n = 0 then begin
      let p = Sampler.point rng Sampler.Uniform in
      Pr_arena.insert arena p;
      push p
    end
    else if u < 0.65 then begin
      let p = take (Xoshiro.int rng !n) in
      if not (Pr_arena.delete arena p) then
        Alcotest.failf "delete of a live point (%g, %g) failed" p.Point.x
          p.Point.y
    end
    else begin
      let p = take (Xoshiro.int rng !n) in
      let q = Sampler.point rng Sampler.Uniform in
      if not (Pr_arena.update arena p q) then
        Alcotest.failf "update of a live point (%g, %g) failed" p.Point.x
          p.Point.y;
      push q
    end
  done;
  Array.to_list (Array.sub !live 0 !n)

let stats_match_frozen a frozen =
  Pr_arena.size a = Pr_quadtree.size frozen
  && Pr_arena.leaf_count a = Pr_quadtree.leaf_count frozen
  && Pr_arena.internal_count a = Pr_quadtree.internal_count frozen
  && Pr_arena.height a = Pr_quadtree.height frozen
  && Pr_arena.occupancy_histogram a = Pr_quadtree.occupancy_histogram frozen

let pr_arena_churn_tests =
  [
    prop ~count:40 "churned arena equals a fresh build of the survivors"
      QCheck2.Gen.(triple (int_range 0 10_000) (int_range 1 6) (int_range 2 16))
      (fun (seed, capacity, max_depth) ->
        let pts = uniform_points seed 150 in
        let a = Pr_arena.of_points ~capacity ~max_depth pts in
        let rng = Xoshiro.of_int_seed (seed + 1) in
        let survivors = churn_arena a rng ~ops:400 ~survivors:pts in
        let frozen = Pr_arena.freeze a in
        Pr_quadtree.equal_structure frozen
          (Pr_quadtree.of_points ~capacity ~max_depth survivors)
        && stats_match_frozen a frozen
        && Pr_arena.check_invariants a = []);
    prop ~count:20 "survivor rebuilds are byte-identical at jobs 1, 2 and 4"
      QCheck2.Gen.(pair (int_range 0 10_000) (int_range 1 5))
      (fun (seed, capacity) ->
        (* The churned arena is structurally equal to the bulk rebuild
           of its survivors, and that rebuild does not depend on the
           job count down to the last byte. *)
        let pts = uniform_points seed 120 in
        let a = Pr_arena.of_points ~capacity pts in
        let rng = Xoshiro.of_int_seed (seed + 2) in
        let survivors = churn_arena a rng ~ops:300 ~survivors:pts in
        let enc jobs =
          Popan_store.Codec.(
            encode pr_quadtree
              (Pr_arena.freeze
                 (Pr_arena.of_points_bulk ~capacity ?jobs survivors)))
        in
        let sequential = enc None in
        sequential = enc (Some 1)
        && sequential = enc (Some 2)
        && sequential = enc (Some 4)
        && Pr_quadtree.equal_structure (Pr_arena.freeze a)
             (Popan_store.Codec.(decode pr_quadtree) sequential));
    prop ~count:30 "delete everything, then refill from empty"
      QCheck2.Gen.(pair (int_range 0 10_000) (int_range 1 6))
      (fun (seed, capacity) ->
        let pts = uniform_points seed 200 in
        let a = Pr_arena.of_points ~capacity pts in
        let high = Pr_arena.slot_high_water a in
        (* Delete in an order unrelated to insertion. *)
        List.iter
          (fun p ->
            if not (Pr_arena.delete a p) then Alcotest.fail "delete failed")
          (List.rev pts);
        let empty_ok =
          Pr_arena.is_empty a
          && Pr_arena.leaf_count a = 1
          && Pr_arena.internal_count a = 0
          && Pr_arena.height a = 0
          && (Pr_arena.occupancy_histogram a).(0) = 1
          && Pr_arena.check_invariants a = []
        in
        let refill = uniform_points (seed + 7) 200 in
        Pr_arena.insert_all a refill;
        empty_ok
        && Pr_quadtree.equal_structure (Pr_arena.freeze a)
             (Pr_quadtree.of_points ~capacity refill)
        (* Every slot and node block was recycled: same footprint as
           the first fill, not one word more. *)
        && Pr_arena.slot_high_water a = high
        && Pr_arena.check_invariants a = []);
    Alcotest.test_case "duplicate-heavy churn at max_depth saturation" `Quick
      (fun () ->
        (* Over-full leaves at the depth limit: deletes must unwind the
           clamped histogram cell one duplicate at a time and merge the
           saturated spine back to the root leaf. *)
        let p = Point.make 0.3 0.3 in
        let q = Point.make 0.30000001 0.30000001 in
        let dups = [ p; q; p; q; p; p ] in
        let a = Pr_arena.of_points ~capacity:1 ~max_depth:3 dups in
        let expect rest =
          no_violations "inv" (Pr_arena.check_invariants a);
          check_bool "matches rebuild" true
            (Pr_quadtree.equal_structure (Pr_arena.freeze a)
               (Pr_quadtree.of_points ~capacity:1 ~max_depth:3 rest))
        in
        check_bool "delete one dup" true (Pr_arena.delete a p);
        expect [ q; p; q; p; p ];
        check_bool "delete another" true (Pr_arena.delete a p);
        expect [ q; q; p; p ];
        check_bool "update a dup off the pile" true
          (Pr_arena.update a q (Point.make 0.9 0.1));
        expect [ q; p; p; Point.make 0.9 0.1 ];
        check_bool "drain" true
          (Pr_arena.delete a q && Pr_arena.delete a p && Pr_arena.delete a p
          && Pr_arena.delete a (Point.make 0.9 0.1));
        check_bool "empty" true (Pr_arena.is_empty a);
        check_int "height back to zero" 0 (Pr_arena.height a);
        expect []);
    Alcotest.test_case "delete misses: absent, out of bounds, emptied" `Quick
      (fun () ->
        let pts = uniform_points 77 50 in
        let a = Pr_arena.of_points ~capacity:3 pts in
        let frozen = Pr_arena.freeze a in
        check_bool "absent point" false (Pr_arena.delete a (Point.make 0.123 0.456));
        check_bool "outside bounds" false (Pr_arena.delete a (Point.make 1.5 0.5));
        check_bool "absent update" false
          (Pr_arena.update a (Point.make 0.123 0.456) (Point.make 0.5 0.5));
        check_bool "untouched" true
          (Pr_quadtree.equal_structure frozen (Pr_arena.freeze a));
        Alcotest.check_raises "update target out of bounds"
          (Invalid_argument "Pr_arena.update: replacement point outside bounds")
          (fun () ->
            ignore (Pr_arena.update a (List.hd pts) (Point.make 2.0 0.5)));
        check_bool "failed update mutated nothing" true
          (Pr_quadtree.equal_structure frozen (Pr_arena.freeze a)));
    prop ~count:30 "constant-size churn never grows the footprint"
      QCheck2.Gen.(pair (int_range 0 10_000) (int_range 1 6))
      (fun (seed, capacity) ->
        (* delete-one/insert-one forever: live population is constant,
           so the slot high-water mark must never move — the free lists
           really do bound the arena by live points. *)
        let pts = uniform_points seed 100 in
        let a = Pr_arena.of_points ~capacity pts in
        let high = Pr_arena.slot_high_water a in
        let rng = Xoshiro.of_int_seed (seed + 4) in
        let live = Array.of_list pts in
        for _ = 1 to 500 do
          let i = Xoshiro.int rng (Array.length live) in
          let q = Sampler.point rng Sampler.Uniform in
          if not (Pr_arena.update a live.(i) q) then
            Alcotest.fail "update failed";
          live.(i) <- q
        done;
        Pr_arena.slot_high_water a = high
        && Pr_arena.size a = Array.length live
        && Pr_quadtree.equal_structure (Pr_arena.freeze a)
             (Pr_quadtree.of_points ~capacity (Array.to_list live))
        && Pr_arena.check_invariants a = []);
  ]

(* The parallel / out-of-core bulk path *)

let pr_arena_bulk_tests =
  [
    prop "parallel bulk equals sequential at jobs 1, 2 and 4"
      QCheck2.Gen.(triple (int_range 0 10_000) (int_range 1 6) (int_range 0 12))
      (fun (seed, capacity, max_depth) ->
        (* Depth limits from 0 cover trees that stop above the four
           grouped levels. The pooled build must equal the sequential
           one in every stored entry — node ids, chains, columns and
           counters — not just in its frozen structure. *)
        let pts = uniform_points seed 400 in
        let seq = Pr_arena.of_points_bulk ~capacity ~max_depth pts in
        let sequential = Pr_arena.freeze seq in
        let reference = Pr_quadtree.of_points ~capacity ~max_depth pts in
        List.for_all
          (fun jobs ->
            let par =
              Pr_arena.of_points_bulk ~capacity ~max_depth ~jobs pts
            in
            Pr_arena.check_invariants par = []
            && Pr_arena.diff_state seq par = []
            && Pr_quadtree.equal_structure (Pr_arena.freeze par) sequential)
          [ 1; 2; 4 ]
        && Pr_quadtree.equal_structure sequential reference);
    prop "bulk_of_fn streams the same tree as the point list"
      QCheck2.Gen.(pair (int_range 0 10_000) (int_range 1 6))
      (fun (seed, capacity) ->
        let pts = uniform_points seed 300 in
        let arr = Array.of_list pts in
        let streamed =
          Pr_arena.bulk_of_fn ~capacity ~n:(Array.length arr) (fun i ->
              arr.(i))
        in
        Pr_quadtree.equal_structure
          (Pr_arena.freeze streamed)
          (Pr_arena.freeze (Pr_arena.of_points_bulk ~capacity pts))
        && Pr_arena.check_invariants streamed = []);
    prop "mmap-backed arena equals heap, freeze/thaw round-trips"
      QCheck2.Gen.(pair (int_range 0 10_000) (int_range 1 6))
      (fun (seed, capacity) ->
        let pts = uniform_points seed 300 in
        let dir =
          Filename.concat (Filename.get_temp_dir_name ()) "popan-test-segments"
        in
        let m =
          Pr_arena.of_points_bulk ~backing:(Pr_arena.Mmap { dir }) ~capacity
            ~jobs:2 pts
        in
        let mapped = Pr_arena.backing m <> Pr_arena.Heap in
        let frozen = Pr_arena.freeze m in
        let round_trip = Pr_arena.freeze (Pr_arena.thaw frozen) in
        let ok =
          mapped
          && Pr_arena.check_invariants m = []
          && Pr_quadtree.equal_structure frozen
               (Pr_arena.freeze (Pr_arena.of_points_bulk ~capacity pts))
          && Pr_quadtree.equal_structure frozen round_trip
        in
        Pr_arena.release m;
        ok);
    Alcotest.test_case "mmap arena keeps growing through remaps" `Quick
      (fun () ->
        (* Incremental inserts double mmap-ed columns through file
           remaps; the data must survive every growth step. *)
        let dir =
          Filename.concat (Filename.get_temp_dir_name ()) "popan-test-segments"
        in
        let a =
          Pr_arena.create ~backing:(Pr_arena.Mmap { dir }) ~capacity:4 ()
        in
        let pts = uniform_points 77 3000 in
        List.iter (Pr_arena.insert a) pts;
        check_int "size" 3000 (Pr_arena.size a);
        no_violations "inv" (Pr_arena.check_invariants a);
        check_bool "still mapped" true (Pr_arena.backing a <> Pr_arena.Heap);
        check_bool "matches heap build" true
          (Pr_quadtree.equal_structure (Pr_arena.freeze a)
             (Pr_quadtree.of_points ~capacity:4 pts));
        Pr_arena.release a);
    Alcotest.test_case "deep collisions split by the lo code word" `Quick
      (fun () ->
        (* Points sharing all 21 coarse bits but differing in bits
           22..30: the build must descend on the lo word — integer
           arithmetic, no float fallback — and match the reference.
           With the old single-word keys this shape forced the float
           path (or, in bulk, a silent incremental fallback). *)
        let base = 0.3333333 in
        let pts =
          List.init 6 (fun k ->
              Point.make
                (base +. (float_of_int k *. ldexp 1.0 (-30)))
                (base +. (float_of_int (k mod 3) *. ldexp 1.0 (-29))))
        in
        let reference = Pr_quadtree.of_points ~capacity:1 ~max_depth:32 pts in
        let seq = Pr_arena.of_points_bulk ~capacity:1 ~max_depth:32 pts in
        let par =
          Pr_arena.of_points_bulk ~capacity:1 ~max_depth:32 ~jobs:4 pts
        in
        check_bool "deeper than the coarse code" true (Pr_arena.height seq > 21);
        check_bool "sequential matches reference" true
          (Pr_quadtree.equal_structure (Pr_arena.freeze seq) reference);
        check_bool "parallel matches reference" true
          (Pr_quadtree.equal_structure (Pr_arena.freeze par) reference);
        no_violations "inv seq" (Pr_arena.check_invariants seq);
        no_violations "inv par" (Pr_arena.check_invariants par));
    Alcotest.test_case "bulk_of_fn validates" `Quick (fun () ->
        Alcotest.check_raises "negative n"
          (Invalid_argument "Pr_arena.bulk_of_fn: n < 0") (fun () ->
            ignore
              (Pr_arena.bulk_of_fn ~capacity:2 ~n:(-1) (fun _ ->
                   Point.origin)));
        Alcotest.check_raises "point outside bounds"
          (Invalid_argument "Pr_arena bulk build: point outside bounds")
          (fun () ->
            ignore
              (Pr_arena.bulk_of_fn ~capacity:2 ~n:1 (fun _ ->
                   Point.make 1.5 0.5))));
    Alcotest.test_case "footprint estimate is sane and validates" `Quick
      (fun () ->
        let f = Pr_arena.bulk_footprint ~capacity:8 ~n:1_000_000 in
        (* Seven 8-byte columns of n entries — three point columns and
           four sort columns — plus node arrays. *)
        check_bool "covers the columns" true (f >= 56 * 1_000_000);
        check_bool "stays within 2x the columns" true (f <= 112 * 1_000_000);
        Alcotest.check_raises "n < 0"
          (Invalid_argument "Pr_arena.bulk_footprint: n < 0") (fun () ->
            ignore (Pr_arena.bulk_footprint ~capacity:1 ~n:(-1)));
        Alcotest.check_raises "capacity < 1"
          (Invalid_argument "Pr_arena.bulk_footprint: capacity < 1") (fun () ->
            ignore (Pr_arena.bulk_footprint ~capacity:0 ~n:1)));
    Alcotest.test_case "an mmap build keeps only its point columns on disk"
      `Quick (fun () ->
        (* The sort scratch (keys, slots and their ping-pong twins) is
           mapped as segments too; every bulk entry deletes it when its
           sort is done, and [release] still removes the directory. A
           build that raises releases its arena itself, since its
           caller never receives it. *)
        let n = 20_000 in
        let pts = uniform_points 91 n in
        let xs = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n in
        let ys = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n in
        List.iteri
          (fun i (p : Point.t) ->
            xs.{i} <- p.Point.x;
            ys.{i} <- p.Point.y)
          pts;
        List.iter
          (fun (what, build) ->
            let dir = Filename.temp_dir "popan-test" "-segments" in
            let a = build (Pr_arena.Mmap { dir }) in
            check_bool (what ^ ": mapped") true (Pr_arena.backing a <> Pr_arena.Heap);
            check_int (what ^ ": size") n (Pr_arena.size a);
            let segments =
              match Sys.readdir dir with
              | [| arena |] ->
                List.sort compare (Array.to_list (Sys.readdir (Filename.concat dir arena)))
              | entries -> Array.to_list entries
            in
            Alcotest.(check (list string)) (what ^ ": segments")
              [ "next.seg"; "xs.seg"; "ys.seg" ] segments;
            Pr_arena.release a;
            check_int (what ^ ": released") 0 (Array.length (Sys.readdir dir));
            Sys.rmdir dir)
          [ ("Z-ordered", fun backing ->
                Pr_arena.bulk_zordered ~backing ~capacity:8 ~n xs ys);
            ("in place", fun backing ->
                Pr_arena.of_points_bulk ~backing ~capacity:8 pts);
            ("in place at 2 jobs", fun backing ->
                Pr_arena.of_points_bulk ~backing ~jobs:2 ~capacity:8 pts) ];
        (* The last point leaves the unit square: each entry rejects the
           build once its columns are mapped. *)
        xs.{n - 1} <- 1.5;
        let outside = pts @ [ Point.make 1.5 0.5 ] in
        List.iter
          (fun (what, build) ->
            let dir = Filename.temp_dir "popan-test" "-segments" in
            Alcotest.check_raises (what ^ ": rejected")
              (Invalid_argument "Pr_arena bulk build: point outside bounds")
              (fun () -> ignore (build (Pr_arena.Mmap { dir }) : Pr_arena.t));
            check_int (what ^ ": nothing left on disk") 0
              (Array.length (Sys.readdir dir));
            Sys.rmdir dir)
          [ ("rejected Z-ordered", fun backing ->
                Pr_arena.bulk_zordered ~backing ~capacity:8 ~n xs ys);
            ("rejected in place", fun backing ->
                Pr_arena.of_points_bulk ~backing ~capacity:8 outside) ]);
  ]

(* The builder contract on bulk-built arenas. The experiments grow PR
   trees through one mutable builder: O(1) statistics, destructive
   inserts, freeze/thaw with Pr_quadtree. The pr_arena group holds the
   incremental arena to it; here both bulk routes, in place and
   Z-ordered, must hand back the same builder. The build has to seed
   every counter that later inserts maintain, and the arena must go on
   growing after it. (The group keeps the name of Pr_builder, the
   list-based builder that the arena replaced.) *)

type bulk_route = In_place | Z_ordered

let bulk_routes = [ ("in place", In_place); ("Z-ordered", Z_ordered) ]

let bulk_build route ?max_depth ~capacity pts =
  match route with
  | In_place -> Pr_arena.of_points_bulk ?max_depth ~capacity pts
  | Z_ordered ->
    let n = List.length pts in
    let xs = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n in
    let ys = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n in
    List.iteri
      (fun i (p : Point.t) ->
        xs.{i} <- p.Point.x;
        ys.{i} <- p.Point.y)
      pts;
    Pr_arena.bulk_zordered ?max_depth ~capacity ~n xs ys

let on_routes f = List.iter (fun (what, route) -> f what route) bulk_routes
let all_routes law = List.for_all (fun (_, route) -> law route) bulk_routes

let pr_builder_tests =
  [
    Alcotest.test_case "empty builder statistics" `Quick (fun () ->
        on_routes (fun what route ->
            let a = bulk_build route ~capacity:3 [] in
            check_int (what ^ ": size") 0 (Pr_arena.size a);
            check_int (what ^ ": leaves") 1 (Pr_arena.leaf_count a);
            check_int (what ^ ": internals") 0 (Pr_arena.internal_count a);
            check_int (what ^ ": height") 0 (Pr_arena.height a);
            check_bool (what ^ ": empty") true (Pr_arena.is_empty a);
            Alcotest.(check (array int)) (what ^ ": hist") [| 1; 0; 0; 0 |]
              (Pr_arena.occupancy_histogram a);
            (* An empty build is a live builder: its first insert counts. *)
            Pr_arena.insert a (Point.make 0.5 0.5);
            check_int (what ^ ": size after insert") 1 (Pr_arena.size a);
            Alcotest.(check (array int)) (what ^ ": hist after insert")
              [| 0; 1; 0; 0 |] (Pr_arena.occupancy_histogram a)));
    Alcotest.test_case "create validates" `Quick (fun () ->
        (* Both routes make their arena with [create], so they reject
           what it rejects. *)
        on_routes (fun what route ->
            Alcotest.check_raises (what ^ ": cap")
              (Invalid_argument "Pr_arena.create: capacity < 1") (fun () ->
                ignore (bulk_build route ~capacity:0 [ Point.make 0.5 0.5 ]));
            Alcotest.check_raises (what ^ ": depth")
              (Invalid_argument "Pr_arena.create: max_depth < 0") (fun () ->
                ignore (bulk_build route ~max_depth:(-1) ~capacity:1 []));
            Alcotest.check_raises (what ^ ": depth past the fine grid")
              (Invalid_argument "Pr_arena.create: max_depth > 42") (fun () ->
                ignore (bulk_build route ~max_depth:43 ~capacity:1 [])));
        Alcotest.check_raises "in place: n < 0"
          (Invalid_argument "Pr_arena.bulk_of_columns: n < 0") (fun () ->
            ignore
              (Pr_arena.bulk_of_columns ~capacity:1 ~n:(-1) (fun _ _ -> ())));
        let empty = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout 0 in
        Alcotest.check_raises "Z-ordered: n < 0"
          (Invalid_argument "Pr_arena.bulk_zordered: n < 0") (fun () ->
            ignore (Pr_arena.bulk_zordered ~capacity:1 ~n:(-1) empty empty));
        Alcotest.check_raises "Z-ordered: short column"
          (Invalid_argument
             "Pr_arena.bulk_zordered: a source column is shorter than n")
          (fun () ->
            ignore (Pr_arena.bulk_zordered ~capacity:1 ~n:1 empty empty)));
    Alcotest.test_case "insert outside bounds rejected" `Quick (fun () ->
        on_routes (fun what route ->
            Alcotest.check_raises (what ^ ": build")
              (Invalid_argument "Pr_arena bulk build: point outside bounds")
              (fun () ->
                ignore
                  (bulk_build route ~capacity:1
                     [ Point.make 0.5 0.5; Point.make 1.0 0.5 ]));
            let a = bulk_build route ~capacity:1 (uniform_points 134 50) in
            Alcotest.check_raises (what ^ ": insert")
              (Invalid_argument "Pr_arena.insert: point outside bounds")
              (fun () -> Pr_arena.insert a (Point.make 1.5 0.5));
            check_int (what ^ ": size kept") 50 (Pr_arena.size a);
            no_violations (what ^ ": inv") (Pr_arena.check_invariants a)));
    Alcotest.test_case "freeze of empty equals empty tree" `Quick (fun () ->
        on_routes (fun what route ->
            check_bool what true
              (Pr_quadtree.equal_structure
                 (Pr_arena.freeze (bulk_build route ~capacity:2 []))
                 (Pr_quadtree.create ~capacity:2 ()))));
    Alcotest.test_case "max_depth truncates and clamps histogram" `Quick
      (fun () ->
        (* Three duplicates split down to the cap: three empty siblings
           per level and one over-capacity leaf in the last cell. *)
        let p = Point.make 0.3 0.3 in
        on_routes (fun what route ->
            let a = bulk_build route ~capacity:1 ~max_depth:5 [ p; p; p ] in
            check_int (what ^ ": size") 3 (Pr_arena.size a);
            check_int (what ^ ": height capped") 5 (Pr_arena.height a);
            Alcotest.(check (array int)) (what ^ ": hist") [| 15; 1 |]
              (Pr_arena.occupancy_histogram a);
            no_violations (what ^ ": inv") (Pr_arena.check_invariants a)));
    Alcotest.test_case "frozen snapshot survives further growth" `Quick
      (fun () ->
        (* A bulk build sizes its columns for exactly its points, so the
           inserts after it grow and replace them; freeze copies out and
           keeps its own view. *)
        let pts = uniform_points 130 200 in
        let first, rest =
          ( List.filteri (fun i _ -> i < 100) pts,
            List.filteri (fun i _ -> i >= 100) pts )
        in
        let snapshot = Pr_quadtree.of_points ~capacity:2 first in
        on_routes (fun what route ->
            let a = bulk_build route ~capacity:2 first in
            let frozen = Pr_arena.freeze a in
            Pr_arena.insert_all a rest;
            check_bool (what ^ ": snapshot intact") true
              (Pr_quadtree.equal_structure frozen snapshot);
            check_bool (what ^ ": arena moved on") true
              (Pr_quadtree.equal_structure (Pr_arena.freeze a)
                 (Pr_quadtree.of_points ~capacity:2 pts));
            no_violations (what ^ ": inv") (Pr_arena.check_invariants a)));
    Alcotest.test_case "thaw resumes a persistent build" `Quick (fun () ->
        (* Freeze a bulk build of the first half, thaw it and insert the
           rest: the result is the tree, and has the statistics, of a
           bulk build of all the points. *)
        let pts = uniform_points 131 150 in
        let first, rest =
          ( List.filteri (fun i _ -> i < 75) pts,
            List.filteri (fun i _ -> i >= 75) pts )
        in
        on_routes (fun what route ->
            let a =
              Pr_arena.thaw (Pr_arena.freeze (bulk_build route ~capacity:3 first))
            in
            Pr_arena.insert_all a rest;
            let whole = bulk_build route ~capacity:3 pts in
            check_bool (what ^ ": same tree") true
              (Pr_quadtree.equal_structure (Pr_arena.freeze a)
                 (Pr_quadtree.of_points ~capacity:3 pts));
            check_bool (what ^ ": bulk of all agrees") true
              (Pr_quadtree.equal_structure (Pr_arena.freeze a)
                 (Pr_arena.freeze whole));
            check_int (what ^ ": height") (Pr_arena.height whole)
              (Pr_arena.height a);
            Alcotest.(check (array int)) (what ^ ": hist")
              (Pr_arena.occupancy_histogram whole)
              (Pr_arena.occupancy_histogram a));
        (* A tree over other bounds has no unit-square arena to resume. *)
        Alcotest.check_raises "non-unit bounds"
          (Invalid_argument "Pr_arena.thaw: bounds are not the unit square")
          (fun () ->
            ignore
              (Pr_arena.thaw
                 (Pr_quadtree.of_points
                    ~bounds:(Box.make ~xmin:(-1.0) ~ymin:0.0 ~xmax:1.0 ~ymax:2.0)
                    ~capacity:3 first))));
    Alcotest.test_case "fold_leaves counts are free and correct" `Quick
      (fun () ->
        on_routes (fun what route ->
            let a = bulk_build route ~capacity:4 (uniform_points 132 300) in
            let leaves, total =
              Pr_arena.fold_leaves a ~init:(0, 0)
                ~f:(fun (leaves, total) ~depth:_ ~box ~points ~count ->
                  check_int (what ^ ": count") (List.length points) count;
                  List.iter
                    (fun p ->
                      if not (Box.contains box p) then
                        Alcotest.fail (what ^ ": point outside its leaf block"))
                    points;
                  (leaves + 1, total + count))
            in
            check_int (what ^ ": leaves") (Pr_arena.leaf_count a) leaves;
            check_int (what ^ ": points") 300 total));
    prop "freeze equals of_points for any point set and capacity"
      QCheck2.Gen.(triple (int_range 0 10_000) (int_range 0 300) (int_range 1 6))
      (fun (seed, n, capacity) ->
        let pts = uniform_points seed n in
        let reference = Pr_quadtree.of_points ~capacity pts in
        all_routes (fun route ->
            let frozen = Pr_arena.freeze (bulk_build route ~capacity pts) in
            Pr_quadtree.equal_structure frozen reference
            && Pr_quadtree.check_invariants frozen = []));
    prop "incremental statistics match the frozen tree's recomputation"
      QCheck2.Gen.(triple (int_range 0 10_000) (int_range 0 300) (int_range 1 8))
      (fun (seed, split, capacity) ->
        (* Bulk-build a prefix, then insert the rest. *)
        let pts = uniform_points seed 300 in
        let first = List.filteri (fun i _ -> i < split) pts
        and rest = List.filteri (fun i _ -> i >= split) pts in
        all_routes (fun route ->
            let a = bulk_build route ~capacity first in
            let recomputed () =
              let frozen = Pr_arena.freeze a in
              Pr_arena.size a = Pr_quadtree.size frozen
              && Pr_arena.leaf_count a = Pr_quadtree.leaf_count frozen
              && Pr_arena.internal_count a = Pr_quadtree.internal_count frozen
              && Pr_arena.height a = Pr_quadtree.height frozen
              && Pr_arena.occupancy_histogram a
                 = Pr_quadtree.occupancy_histogram frozen
              && Pr_arena.average_occupancy a
                 = Pr_quadtree.average_occupancy frozen
              && Pr_arena.check_invariants a = []
            in
            let after_build = recomputed () in
            Pr_arena.insert_all a rest;
            after_build && recomputed () && Pr_arena.size a = 300));
    prop "thaw then freeze is the identity"
      QCheck2.Gen.(pair (int_range 0 5000) (int_range 1 5))
      (fun (seed, capacity) ->
        let pts = uniform_points seed 150 in
        all_routes (fun route ->
            let bulk = bulk_build route ~capacity pts in
            let t = Pr_arena.freeze bulk in
            let a = Pr_arena.thaw t in
            Pr_quadtree.equal_structure t (Pr_arena.freeze a)
            && Pr_arena.leaf_count a = Pr_arena.leaf_count bulk
            && Pr_arena.internal_count a = Pr_arena.internal_count bulk
            && Pr_arena.height a = Pr_arena.height bulk
            && Pr_arena.occupancy_histogram a
               = Pr_arena.occupancy_histogram bulk
            && Pr_arena.check_invariants a = []));
    Alcotest.test_case "freeze/thaw at max_depth saturation, duplicates"
      `Quick (fun () ->
        (* The bulk sort cannot separate duplicates either: it stops at
           the depth cap with an over-capacity leaf. Inserts after the
           build, freeze and thaw must all keep that clamped shape. *)
        let p = Point.make 0.3 0.3 in
        let dups = [ p; p; p; p; p ] in
        let reference = Pr_quadtree.of_points ~capacity:1 ~max_depth:3 dups in
        on_routes (fun what route ->
            let a = bulk_build route ~capacity:1 ~max_depth:3 dups in
            check_int (what ^ ": height capped") 3 (Pr_arena.height a);
            check_int (what ^ ": size") 5 (Pr_arena.size a);
            no_violations (what ^ ": inv") (Pr_arena.check_invariants a);
            let hist = Pr_arena.occupancy_histogram a in
            check_int (what ^ ": clamped cell") 1 hist.(Array.length hist - 1);
            let frozen = Pr_arena.freeze a in
            check_bool (what ^ ": matches persistent build") true
              (Pr_quadtree.equal_structure frozen reference);
            check_bool (what ^ ": histograms agree") true
              (Pr_quadtree.occupancy_histogram frozen = hist);
            Pr_arena.insert_all a [ p; p ];
            check_int (what ^ ": still capped") 3 (Pr_arena.height a);
            check_int (what ^ ": grown size") 7 (Pr_arena.size a);
            no_violations (what ^ ": grown inv") (Pr_arena.check_invariants a);
            let thawed = Pr_arena.thaw frozen in
            Pr_arena.insert_all thawed [ p; p ];
            check_bool (what ^ ": thawed growth agrees") true
              (Pr_quadtree.equal_structure (Pr_arena.freeze thawed)
                 (Pr_arena.freeze a));
            check_bool (what ^ ": frozen snapshot unaffected") true
              (Pr_quadtree.size frozen = 5)));
  ]

(* Bintree *)

let bintree_tests =
  [
    Alcotest.test_case "alternating split axes" `Quick (fun () ->
        (* Two points separated only in x: one vertical split suffices. *)
        let t =
          Bintree.of_points ~capacity:1 [ Point.make 0.1 0.5; Point.make 0.9 0.5 ]
        in
        check_int "leaves" 2 (Bintree.leaf_count t);
        check_int "height" 1 (Bintree.height t));
    Alcotest.test_case "y separation needs two levels" `Quick (fun () ->
        (* Same x half, differing y: depth-0 x-split leaves both together,
           depth-1 y-split separates. *)
        let t =
          Bintree.of_points ~capacity:1 [ Point.make 0.1 0.1; Point.make 0.1 0.9 ]
        in
        check_int "height" 2 (Bintree.height t);
        no_violations "inv" (Bintree.check_invariants t));
    Alcotest.test_case "mem after inserts" `Quick (fun () ->
        let pts = uniform_points 11 80 in
        let t = Bintree.of_points ~capacity:3 pts in
        List.iter
          (fun p -> if not (Bintree.mem t p) then Alcotest.fail "missing")
          pts);
    Alcotest.test_case "histogram totals" `Quick (fun () ->
        let t = Bintree.of_points ~capacity:4 (uniform_points 12 300) in
        let hist = Bintree.occupancy_histogram t in
        check_int "total" (Bintree.leaf_count t) (Array.fold_left ( + ) 0 hist));
    Alcotest.test_case "query_box matches filter" `Quick (fun () ->
        let pts = uniform_points 81 200 in
        let t = Bintree.of_points ~capacity:3 pts in
        let window = Box.make ~xmin:0.15 ~ymin:0.35 ~xmax:0.65 ~ymax:0.85 in
        let got = List.sort Point.compare (Bintree.query_box t window) in
        let expected =
          List.sort Point.compare (List.filter (Box.contains window) pts)
        in
        check_bool "same" true (got = expected));
    Alcotest.test_case "remove undoes inserts and merges" `Quick (fun () ->
        let pts = uniform_points 82 80 in
        let t = Bintree.of_points ~capacity:2 pts in
        let t' = List.fold_left Bintree.remove t pts in
        check_int "size" 0 (Bintree.size t');
        check_int "single leaf" 1 (Bintree.leaf_count t');
        no_violations "inv" (Bintree.check_invariants t'));
    Alcotest.test_case "remove absent is identity" `Quick (fun () ->
        let t = Bintree.of_points ~capacity:2 (uniform_points 83 20) in
        check_int "size" 20 (Bintree.size (Bintree.remove t (Point.make 0.5 0.123))));
    prop "invariants after random builds"
      QCheck2.Gen.(pair (int_range 0 10_000) (int_range 1 5))
      (fun (seed, capacity) ->
        let t = Bintree.of_points ~capacity (uniform_points seed 150) in
        Bintree.check_invariants t = []);
    prop "invariants under mixed bintree insert/remove"
      QCheck2.Gen.(int_range 0 5000)
      (fun seed ->
        let rng = Xoshiro.of_int_seed seed in
        let live = ref [] in
        let t = ref (Bintree.create ~capacity:2 ()) in
        for _ = 1 to 120 do
          if !live <> [] && Xoshiro.float rng < 0.4 then begin
            match !live with
            | victim :: rest ->
              t := Bintree.remove !t victim;
              live := rest
            | [] -> ()
          end
          else begin
            let p = Point.make (Xoshiro.float rng) (Xoshiro.float rng) in
            t := Bintree.insert !t p;
            live := p :: !live
          end
        done;
        Bintree.check_invariants !t = []
        && Bintree.size !t = List.length !live);
    prop "bintree of capacity m has fewer or equal leaves than quadtree of m"
      QCheck2.Gen.(int_range 0 1000)
      (fun seed ->
        (* Two bintree levels = one quadtree level, but the bintree can stop
           between levels, so it never needs more leaves than the quadtree
           has children... sanity: both structures hold all points. *)
        let pts = uniform_points seed 100 in
        let b = Bintree.of_points ~capacity:2 pts in
        let q = Pr_quadtree.of_points ~capacity:2 pts in
        Bintree.size b = Pr_quadtree.size q);
  ]

(* Md_tree *)

let md_tests =
  [
    Alcotest.test_case "octree splits into 8" `Quick (fun () ->
        (* 8 points, one per orthant, capacity 1. *)
        let corners =
          List.init 8 (fun k ->
              Point_nd.of_list
                [
                  (if k land 1 = 0 then 0.1 else 0.9);
                  (if k land 2 = 0 then 0.1 else 0.9);
                  (if k land 4 = 0 then 0.1 else 0.9);
                ])
        in
        let t = Md_tree.of_points ~capacity:1 ~dim:3 corners in
        check_int "leaves" 8 (Md_tree.leaf_count t);
        check_int "height" 1 (Md_tree.height t);
        check_int "branching" 8 (Md_tree.branching t));
    Alcotest.test_case "dim 2 agrees with quadtree on leaf count" `Quick
      (fun () ->
        let pts = uniform_points 13 200 in
        let nd_pts =
          List.map (fun (p : Point.t) -> Point_nd.of_list [ p.Point.x; p.Point.y ]) pts
        in
        let q = Pr_quadtree.of_points ~capacity:2 pts in
        let m = Md_tree.of_points ~capacity:2 ~dim:2 nd_pts in
        check_int "leaves" (Pr_quadtree.leaf_count q) (Md_tree.leaf_count m));
    Alcotest.test_case "mem in 4 dimensions" `Quick (fun () ->
        let rng = Xoshiro.of_int_seed 14 in
        let pts = Sampler.points_nd rng ~dim:4 100 in
        let t = Md_tree.of_points ~capacity:3 ~dim:4 pts in
        List.iter
          (fun p -> if not (Md_tree.mem t p) then Alcotest.fail "missing")
          pts);
    Alcotest.test_case "dimension mismatch rejected" `Quick (fun () ->
        let t = Md_tree.create ~capacity:1 ~dim:3 () in
        Alcotest.check_raises "dim"
          (Invalid_argument "Md_tree.insert: dimension mismatch") (fun () ->
            ignore (Md_tree.insert t (Point_nd.of_list [ 0.5; 0.5 ]))));
    Alcotest.test_case "query_box matches filter in 3d" `Quick (fun () ->
        let rng = Xoshiro.of_int_seed 77 in
        let pts = Sampler.points_nd rng ~dim:3 300 in
        let t = Md_tree.of_points ~capacity:4 ~dim:3 pts in
        let lo = [| 0.2; 0.0; 0.4 |] and hi = [| 0.7; 0.5; 0.9 |] in
        let inside p =
          let ok = ref true in
          Array.iteri
            (fun i x -> if not (x >= lo.(i) && x < hi.(i)) then ok := false)
            p;
          !ok
        in
        let got = List.length (Md_tree.query_box t ~lo ~hi) in
        let expected = List.length (List.filter inside pts) in
        check_int "count" expected got);
    Alcotest.test_case "query_box validates extents" `Quick (fun () ->
        let t = Md_tree.create ~capacity:1 ~dim:2 () in
        Alcotest.check_raises "empty"
          (Invalid_argument "Md_tree.query_box: empty extent") (fun () ->
            ignore (Md_tree.query_box t ~lo:[| 0.5; 0.0 |] ~hi:[| 0.5; 1.0 |])));
    prop "invariants for random dims"
      QCheck2.Gen.(pair (int_range 0 1000) (int_range 1 4))
      (fun (seed, dim) ->
        let rng = Xoshiro.of_int_seed seed in
        let pts = Sampler.points_nd rng ~dim 120 in
        let t = Md_tree.of_points ~capacity:2 ~dim pts in
        Md_tree.check_invariants t = [] && Md_tree.size t = 120);
  ]

(* Point quadtree *)

let point_quadtree_tests =
  [
    Alcotest.test_case "insert and mem" `Quick (fun () ->
        let pts = uniform_points 15 100 in
        let t = Point_quadtree.of_points pts in
        check_int "size" 100 (Point_quadtree.size t);
        List.iter
          (fun p -> if not (Point_quadtree.mem t p) then Alcotest.fail "missing")
          pts);
    Alcotest.test_case "duplicate insert ignored" `Quick (fun () ->
        let p = Point.make 0.5 0.5 in
        let t = Point_quadtree.of_points [ p; p; p ] in
        check_int "size" 1 (Point_quadtree.size t));
    Alcotest.test_case "shape depends on insertion order" `Quick (fun () ->
        (* A sorted insertion degenerates; a balanced order does not —
           exactly the §II remark about order sensitivity. *)
        let diag = List.init 32 (fun i -> Point.make (0.02 +. (0.03 *. float_of_int i)) (0.02 +. (0.03 *. float_of_int i))) in
        let sorted = Point_quadtree.of_points diag in
        let middle_out =
          Point_quadtree.of_points
            (List.sort
               (fun a b ->
                 compare
                   (Float.abs (a.Point.x -. 0.5))
                   (Float.abs (b.Point.x -. 0.5)))
               diag)
        in
        check_bool "sorted degenerates" true
          (Point_quadtree.height sorted > Point_quadtree.height middle_out));
    Alcotest.test_case "query_box matches filter" `Quick (fun () ->
        let pts = uniform_points 16 200 in
        let t = Point_quadtree.of_points pts in
        let window = Box.make ~xmin:0.1 ~ymin:0.1 ~xmax:0.4 ~ymax:0.9 in
        let got = List.sort Point.compare (Point_quadtree.query_box t window) in
        let expected =
          List.sort Point.compare (List.filter (Box.contains window) pts)
        in
        check_bool "same" true (got = expected));
    Alcotest.test_case "points preorder count" `Quick (fun () ->
        let t = Point_quadtree.of_points (uniform_points 17 64) in
        check_int "count" 64 (List.length (Point_quadtree.points t)));
    prop "invariants after random builds" QCheck2.Gen.(int_range 0 10_000)
      (fun seed ->
        let t = Point_quadtree.of_points (uniform_points seed 150) in
        Point_quadtree.check_invariants t = []);
  ]

(* PMR quadtree *)

let random_segments seed n =
  Sampler.segments (Xoshiro.of_int_seed seed)
    (Sampler.Uniform_segments { mean_length = 0.15 })
    n

let pmr_tests =
  [
    Alcotest.test_case "under threshold stays single leaf" `Quick (fun () ->
        let segs = random_segments 18 3 in
        let t = Pmr_quadtree.of_segments ~threshold:4 segs in
        check_int "leaves" 1 (Pmr_quadtree.leaf_count t);
        check_int "size" 3 (Pmr_quadtree.size t));
    Alcotest.test_case "split is non-recursive" `Quick (fun () ->
        (* Threshold 1, two crossing diagonals: split once -> height 1,
           children hold both segments where they cross. *)
        let a = Segment.make (Point.make 0.01 0.01) (Point.make 0.99 0.99) in
        let b = Segment.make (Point.make 0.01 0.99) (Point.make 0.99 0.01) in
        let t = Pmr_quadtree.of_segments ~threshold:1 [ a; b ] in
        check_int "height" 1 (Pmr_quadtree.height t);
        no_violations "inv" (Pmr_quadtree.check_invariants t));
    Alcotest.test_case "mem and query" `Quick (fun () ->
        let segs = random_segments 19 40 in
        let t = Pmr_quadtree.of_segments ~threshold:4 segs in
        List.iter
          (fun s -> if not (Pmr_quadtree.mem t s) then Alcotest.fail "missing")
          segs;
        let everywhere = Pmr_quadtree.query_box t Box.unit in
        check_int "distinct count" (List.length segs) (List.length everywhere));
    Alcotest.test_case "remove restores empty tree" `Quick (fun () ->
        let segs = random_segments 20 25 in
        let t = Pmr_quadtree.of_segments ~threshold:2 segs in
        let t' = List.fold_left Pmr_quadtree.remove t segs in
        check_int "size" 0 (Pmr_quadtree.size t');
        check_int "residents" 0
          (Pmr_quadtree.fold_leaves t' ~init:0
             ~f:(fun acc ~depth:_ ~box:_ ~segments -> acc + List.length segments)));
    Alcotest.test_case "histogram covers all leaves" `Quick (fun () ->
        let t = Pmr_quadtree.of_segments ~threshold:4 (random_segments 21 80) in
        let hist = Pmr_quadtree.occupancy_histogram t in
        check_int "total" (Pmr_quadtree.leaf_count t)
          (Array.fold_left ( + ) 0 hist));
    Alcotest.test_case "segment outside bounds rejected" `Quick (fun () ->
        let t = Pmr_quadtree.create ~threshold:1 () in
        Alcotest.check_raises "out"
          (Invalid_argument "Pmr_quadtree.insert: segment outside bounds")
          (fun () ->
            ignore
              (Pmr_quadtree.insert t
                 (Segment.make (Point.make 2.0 2.0) (Point.make 3.0 3.0)))));
    prop "invariants after random builds"
      QCheck2.Gen.(pair (int_range 0 5000) (int_range 1 5))
      (fun (seed, threshold) ->
        let t = Pmr_quadtree.of_segments ~threshold (random_segments seed 50) in
        Pmr_quadtree.check_invariants t = []);
  ]

(* Extendible hashing *)

let ext_hash_tests =
  [
    Alcotest.test_case "empty table" `Quick (fun () ->
        let t = Ext_hash.create ~bucket_size:4 () in
        check_int "buckets" 1 (Ext_hash.bucket_count t);
        check_int "depth" 0 (Ext_hash.global_depth t);
        check_int "dir" 1 (Ext_hash.directory_size t));
    Alcotest.test_case "insert under capacity no split" `Quick (fun () ->
        let t = Ext_hash.create ~bucket_size:4 () in
        Ext_hash.insert_all t (uniform_points 22 4);
        check_int "buckets" 1 (Ext_hash.bucket_count t);
        check_int "size" 4 (Ext_hash.size t));
    Alcotest.test_case "overflow splits and doubles" `Quick (fun () ->
        let t = Ext_hash.create ~bucket_size:2 () in
        Ext_hash.insert_all t (uniform_points 23 3);
        check_bool "split happened" true (Ext_hash.bucket_count t >= 2);
        check_bool "depth grew" true (Ext_hash.global_depth t >= 1);
        no_violations "inv" (Ext_hash.check_invariants t));
    Alcotest.test_case "mem finds keys" `Quick (fun () ->
        let t = Ext_hash.create ~bucket_size:4 () in
        let pts = uniform_points 24 200 in
        Ext_hash.insert_all t pts;
        List.iter
          (fun p -> if not (Ext_hash.mem t p) then Alcotest.fail "missing")
          pts;
        check_bool "absent" false (Ext_hash.mem t (Point.make 0.30303 0.70707)));
    Alcotest.test_case "utilization near ln2 for big tables" `Quick (fun () ->
        let t = Ext_hash.create ~bucket_size:8 () in
        Ext_hash.insert_all t (uniform_points 25 4000);
        let u = Ext_hash.utilization t in
        check_bool "range" true (u > 0.6 && u < 0.8));
    Alcotest.test_case "histogram total matches buckets" `Quick (fun () ->
        let t = Ext_hash.create ~bucket_size:4 () in
        Ext_hash.insert_all t (uniform_points 26 500);
        check_int "total" (Ext_hash.bucket_count t)
          (Array.fold_left ( + ) 0 (Ext_hash.occupancy_histogram t)));
    prop "invariants after random loads"
      QCheck2.Gen.(pair (int_range 0 5000) (int_range 1 8))
      (fun (seed, bucket_size) ->
        let t = Ext_hash.create ~bucket_size () in
        Ext_hash.insert_all t (uniform_points seed 300);
        Ext_hash.check_invariants t = []);
  ]

(* Grid file *)

let grid_file_tests =
  [
    Alcotest.test_case "empty grid" `Quick (fun () ->
        let g = Grid_file.create ~bucket_size:4 () in
        check_int "buckets" 1 (Grid_file.bucket_count g);
        Alcotest.(check (pair int int)) "1x1" (1, 1) (Grid_file.grid_dimensions g));
    Alcotest.test_case "overflow refines a scale" `Quick (fun () ->
        let g = Grid_file.create ~bucket_size:2 () in
        Grid_file.insert_all g (uniform_points 27 3);
        let cols, rows = Grid_file.grid_dimensions g in
        check_bool "grew" true (cols * rows >= 2);
        no_violations "inv" (Grid_file.check_invariants g));
    Alcotest.test_case "mem finds points" `Quick (fun () ->
        let g = Grid_file.create ~bucket_size:4 () in
        let pts = uniform_points 28 300 in
        Grid_file.insert_all g pts;
        List.iter
          (fun p -> if not (Grid_file.mem g p) then Alcotest.fail "missing")
          pts);
    Alcotest.test_case "query_box matches filter" `Quick (fun () ->
        let g = Grid_file.create ~bucket_size:4 () in
        let pts = uniform_points 29 400 in
        Grid_file.insert_all g pts;
        let window = Box.make ~xmin:0.25 ~ymin:0.4 ~xmax:0.8 ~ymax:0.95 in
        let got = List.sort Point.compare (Grid_file.query_box g window) in
        let expected =
          List.sort Point.compare (List.filter (Box.contains window) pts)
        in
        check_bool "same" true (got = expected));
    Alcotest.test_case "outside point rejected" `Quick (fun () ->
        let g = Grid_file.create ~bucket_size:4 () in
        Alcotest.check_raises "out"
          (Invalid_argument "Grid_file.insert: point outside unit square")
          (fun () -> Grid_file.insert g (Point.make 1.0 0.5)));
    Alcotest.test_case "utilization sane on big load" `Quick (fun () ->
        let g = Grid_file.create ~bucket_size:8 () in
        Grid_file.insert_all g (uniform_points 30 3000);
        let u = Grid_file.utilization g in
        check_bool "range" true (u > 0.3 && u <= 1.0));
    prop "invariants after random loads"
      QCheck2.Gen.(pair (int_range 0 5000) (int_range 1 8))
      (fun (seed, bucket_size) ->
        let g = Grid_file.create ~bucket_size () in
        Grid_file.insert_all g (uniform_points seed 250);
        Grid_file.check_invariants g = []);
  ]

(* PM quadtree family *)

let pm_tests =
  let square_edges =
    (* A small polygon: a quadrilateral with distinct, non-crossing
       edges. *)
    let a = Point.make 0.2 0.2 in
    let b = Point.make 0.8 0.25 in
    let c = Point.make 0.75 0.8 in
    let d = Point.make 0.25 0.75 in
    [ Segment.make a b; Segment.make b c; Segment.make c d; Segment.make d a ]
  in
  [
    Alcotest.test_case "empty map" `Quick (fun () ->
        let t = Pm_quadtree.create ~rule:Pm_quadtree.Pm1 () in
        check_int "edges" 0 (Pm_quadtree.edge_count t);
        check_int "leaves" 1 (Pm_quadtree.leaf_count t));
    Alcotest.test_case "polygon stored under each rule" `Quick (fun () ->
        List.iter
          (fun rule ->
            let t = Pm_quadtree.of_edges ~rule square_edges in
            check_int "edges" 4 (Pm_quadtree.edge_count t);
            check_int "vertices" 4 (Pm_quadtree.vertex_count t);
            no_violations "inv" (Pm_quadtree.check_invariants t))
          [ Pm_quadtree.Pm1; Pm_quadtree.Pm2; Pm_quadtree.Pm3 ]);
    Alcotest.test_case "pm1 refines deeper than pm3" `Quick (fun () ->
        let pm1 = Pm_quadtree.of_edges ~rule:Pm_quadtree.Pm1 square_edges in
        let pm3 = Pm_quadtree.of_edges ~rule:Pm_quadtree.Pm3 square_edges in
        check_bool "pm1 >= pm3 leaves" true
          (Pm_quadtree.leaf_count pm1 >= Pm_quadtree.leaf_count pm3));
    Alcotest.test_case "vertex blocks hold only incident edges (pm1)" `Quick
      (fun () ->
        let t = Pm_quadtree.of_edges ~rule:Pm_quadtree.Pm1 square_edges in
        Pm_quadtree.fold_leaves t ~init:()
          ~f:(fun () ~depth:_ ~box:_ ~vertices ~edges ->
            match vertices with
            | [ v ] ->
              List.iter
                (fun (e : Segment.t) ->
                  if
                    not
                      (Point.equal e.Segment.p1 v || Point.equal e.Segment.p2 v)
                  then Alcotest.fail "non-incident edge in vertex block")
                edges
            | [] -> if List.length edges > 1 then Alcotest.fail "pm1 violated"
            | _ -> Alcotest.fail "two vertices in one block"));
    Alcotest.test_case "crossing edge rejected" `Quick (fun () ->
        let t =
          Pm_quadtree.of_edges ~rule:Pm_quadtree.Pm3
            [ Segment.make (Point.make 0.1 0.5) (Point.make 0.9 0.5) ]
        in
        let crossing = Segment.make (Point.make 0.5 0.1) (Point.make 0.5 0.9) in
        check_bool "detected" true (Pm_quadtree.would_cross t crossing);
        Alcotest.check_raises "rejected"
          (Invalid_argument "Pm_quadtree.insert_edge: edge crosses a stored edge")
          (fun () -> ignore (Pm_quadtree.insert_edge t crossing)));
    Alcotest.test_case "edges sharing a vertex are not crossings" `Quick
      (fun () ->
        let v = Point.make 0.5 0.5 in
        let t =
          Pm_quadtree.of_edges ~rule:Pm_quadtree.Pm1
            [ Segment.make v (Point.make 0.9 0.6) ]
        in
        let sibling = Segment.make v (Point.make 0.8 0.2) in
        check_bool "no cross" false (Pm_quadtree.would_cross t sibling);
        let t = Pm_quadtree.insert_edge t sibling in
        check_int "edges" 2 (Pm_quadtree.edge_count t);
        check_int "vertices" 3 (Pm_quadtree.vertex_count t);
        no_violations "inv" (Pm_quadtree.check_invariants t));
    Alcotest.test_case "query_box finds crossing edges" `Quick (fun () ->
        let t = Pm_quadtree.of_edges ~rule:Pm_quadtree.Pm2 square_edges in
        let window = Box.make ~xmin:0.0 ~ymin:0.0 ~xmax:0.3 ~ymax:0.3 in
        check_bool "some" true (Pm_quadtree.query_box t window <> []));
    Alcotest.test_case "histogram covers all leaves" `Quick (fun () ->
        let t = Pm_quadtree.of_edges ~rule:Pm_quadtree.Pm3 square_edges in
        check_int "total" (Pm_quadtree.leaf_count t)
          (Array.fold_left ( + ) 0 (Pm_quadtree.occupancy_histogram t)));
    prop ~count:30 "invariants on random planar maps"
      QCheck2.Gen.(pair (int_range 0 2000) (int_range 0 2))
      (fun (seed, which) ->
        let rule =
          match which with
          | 0 -> Pm_quadtree.Pm1
          | 1 -> Pm_quadtree.Pm2
          | _ -> Pm_quadtree.Pm3
        in
        (* Build a random non-crossing set greedily. *)
        let rng = Xoshiro.of_int_seed seed in
        let candidates =
          Sampler.segments rng
            (Sampler.Uniform_segments { mean_length = 0.15 })
            25
        in
        let t =
          List.fold_left
            (fun t s ->
              if Pm_quadtree.would_cross t s then t
              else Pm_quadtree.insert_edge t s)
            (Pm_quadtree.create ~rule ())
            candidates
        in
        Pm_quadtree.check_invariants t = []);
  ]

(* Tree_io *)

let tree_io_tests =
  [
    Alcotest.test_case "roundtrip preserves structure" `Quick (fun () ->
        let t = Pr_quadtree.of_points ~capacity:3 (uniform_points 90 200) in
        let t' = Tree_io.decode (Tree_io.encode t) in
        check_bool "equal" true (Pr_quadtree.equal_structure t t'));
    Alcotest.test_case "roundtrip after removals" `Quick (fun () ->
        let pts = uniform_points 91 100 in
        let t = Pr_quadtree.of_points ~capacity:2 pts in
        let t = List.fold_left Pr_quadtree.remove t (List.filteri (fun i _ -> i mod 3 = 0) pts) in
        let t' = Tree_io.decode (Tree_io.encode t) in
        check_bool "equal" true (Pr_quadtree.equal_structure t t'));
    Alcotest.test_case "roundtrip custom bounds and params" `Quick (fun () ->
        let bounds = Box.make ~xmin:(-2.0) ~ymin:(-2.0) ~xmax:6.0 ~ymax:6.0 in
        let t =
          Pr_quadtree.of_points ~bounds ~max_depth:7 ~capacity:5
            [ Point.make (-1.5) 0.25; Point.make 5.9 5.9; Point.make 0.0 0.0 ]
        in
        let t' = Tree_io.decode (Tree_io.encode t) in
        check_bool "equal" true (Pr_quadtree.equal_structure t t'));
    Alcotest.test_case "save and load" `Quick (fun () ->
        let t = Pr_quadtree.of_points ~capacity:4 (uniform_points 92 60) in
        let path = Filename.temp_file "popan" ".prq" in
        Tree_io.save path t;
        let t' = Tree_io.load path in
        Sys.remove path;
        check_bool "equal" true (Pr_quadtree.equal_structure t t'));
    Alcotest.test_case "empty tree roundtrips" `Quick (fun () ->
        let t = Pr_quadtree.create ~capacity:1 () in
        check_bool "equal" true
          (Pr_quadtree.equal_structure t (Tree_io.decode (Tree_io.encode t))));
    Alcotest.test_case "bad header rejected" `Quick (fun () ->
        check_bool "raises" true
          (match Tree_io.decode "quadtree 7 oops" with
           | _ -> false
           | exception Failure _ -> true));
    Alcotest.test_case "point count mismatch rejected" `Quick (fun () ->
        let t = Pr_quadtree.of_points ~capacity:1 (uniform_points 93 3) in
        let text = Tree_io.encode t in
        let truncated =
          String.concat "\n"
            (List.filteri (fun i _ -> i < 3) (String.split_on_char '\n' text))
        in
        check_bool "raises" true
          (match Tree_io.decode truncated with
           | _ -> false
           | exception Failure _ -> true));
    prop "random roundtrips preserve structure"
      QCheck2.Gen.(pair (int_range 0 5000) (int_range 1 6))
      (fun (seed, capacity) ->
        let t = Pr_quadtree.of_points ~capacity (uniform_points seed 80) in
        Pr_quadtree.equal_structure t (Tree_io.decode (Tree_io.encode t)));
  ]

(* EXCELL *)

let excell_tests =
  [
    Alcotest.test_case "empty file" `Quick (fun () ->
        let t = Excell.create ~bucket_size:4 () in
        check_int "buckets" 1 (Excell.bucket_count t);
        check_int "levels" 0 (Excell.levels t);
        check_int "cells" 1 (Excell.directory_size t));
    Alcotest.test_case "overflow doubles the directory" `Quick (fun () ->
        let t = Excell.create ~bucket_size:2 () in
        Excell.insert_all t (uniform_points 70 3);
        check_bool "levels grew" true (Excell.levels t >= 1);
        check_int "cells" (1 lsl Excell.levels t) (Excell.directory_size t);
        no_violations "inv" (Excell.check_invariants t));
    Alcotest.test_case "mem finds keys" `Quick (fun () ->
        let t = Excell.create ~bucket_size:4 () in
        let pts = uniform_points 71 250 in
        Excell.insert_all t pts;
        List.iter
          (fun p -> if not (Excell.mem t p) then Alcotest.fail "missing")
          pts;
        check_bool "absent" false (Excell.mem t (Point.make 0.424242 0.131313)));
    Alcotest.test_case "query_box matches filter" `Quick (fun () ->
        let t = Excell.create ~bucket_size:4 () in
        let pts = uniform_points 72 300 in
        Excell.insert_all t pts;
        let window = Box.make ~xmin:0.3 ~ymin:0.1 ~xmax:0.9 ~ymax:0.5 in
        let got = List.sort Point.compare (Excell.query_box t window) in
        let expected =
          List.sort Point.compare (List.filter (Box.contains window) pts)
        in
        check_bool "same" true (got = expected));
    Alcotest.test_case "utilization near ln2 on uniform load" `Quick (fun () ->
        let t = Excell.create ~bucket_size:8 () in
        Excell.insert_all t (uniform_points 73 4000);
        let u = Excell.utilization t in
        check_bool "band" true (u > 0.6 && u < 0.8));
    Alcotest.test_case "directory expansion grows under skew" `Quick (fun () ->
        (* A tight cluster forces deep refinement everywhere in EXCELL's
           regular directory: expansion well above the uniform case. *)
        let uniform = Excell.create ~bucket_size:4 () in
        Excell.insert_all uniform (uniform_points 74 500);
        let clustered = Excell.create ~bucket_size:4 () in
        let rng = Xoshiro.of_int_seed 75 in
        Excell.insert_all clustered
          (Sampler.points rng
             (Sampler.Clusters { centers = [ Point.make 0.31 0.77 ]; sigma = 0.003 })
             500);
        check_bool "skew costs directory" true
          (Excell.directory_expansion clustered
           > Excell.directory_expansion uniform));
    Alcotest.test_case "size and histogram consistent" `Quick (fun () ->
        let t = Excell.create ~bucket_size:4 () in
        Excell.insert_all t (uniform_points 76 400);
        check_int "size" 400 (Excell.size t);
        check_int "buckets" (Excell.bucket_count t)
          (Array.fold_left ( + ) 0 (Excell.occupancy_histogram t)));
    prop "invariants after random loads"
      QCheck2.Gen.(pair (int_range 0 5000) (int_range 1 8))
      (fun (seed, bucket_size) ->
        let t = Excell.create ~bucket_size () in
        Excell.insert_all t (uniform_points seed 300);
        Excell.check_invariants t = []);
  ]

(* Pqueue + incremental nearest neighbor *)

let pqueue_tests =
  [
    Alcotest.test_case "drain is sorted" `Quick (fun () ->
        let q = Pqueue.create () in
        List.iter (fun k -> Pqueue.insert q k (int_of_float k))
          [ 5.0; 1.0; 3.0; 2.0; 4.0; 0.5; 2.5 ];
        let keys = List.map fst (Pqueue.drain q) in
        check_bool "sorted" true (keys = List.sort Float.compare keys);
        check_bool "emptied" true (Pqueue.is_empty q));
    Alcotest.test_case "peek does not remove" `Quick (fun () ->
        let q = Pqueue.create () in
        Pqueue.insert q 2.0 "b";
        Pqueue.insert q 1.0 "a";
        (match Pqueue.peek_min q with
         | Some (k, v) ->
           check_bool "min" true (k = 1.0 && v = "a")
         | None -> Alcotest.fail "empty");
        check_int "size" 2 (Pqueue.size q));
    Alcotest.test_case "nan rejected" `Quick (fun () ->
        let q = Pqueue.create () in
        Alcotest.check_raises "nan" (Invalid_argument "Pqueue.insert: NaN priority")
          (fun () -> Pqueue.insert q Float.nan ()));
    Alcotest.test_case "growth beyond initial capacity" `Quick (fun () ->
        let q = Pqueue.create () in
        for i = 1 to 1000 do
          Pqueue.insert q (float_of_int ((i * 7919) mod 1000)) i
        done;
        check_int "size" 1000 (Pqueue.size q);
        let keys = List.map fst (Pqueue.drain q) in
        check_bool "sorted" true (keys = List.sort Float.compare keys));
    prop "random drains are sorted" QCheck2.Gen.(list_size (int_range 0 200) (float_range 0.0 1.0))
      (fun keys ->
        let q = Pqueue.create () in
        List.iter (fun k -> Pqueue.insert q k ()) keys;
        let out = List.map fst (Pqueue.drain q) in
        out = List.sort Float.compare keys);
  ]

let nearest_seq_tests =
  [
    Alcotest.test_case "enumerates all points by distance" `Quick (fun () ->
        let pts = uniform_points 110 150 in
        let t = Pr_quadtree.of_points ~capacity:3 pts in
        let q = Point.make 0.37 0.61 in
        let stream = List.of_seq (Pr_quadtree.nearest_seq t q) in
        check_int "count" 150 (List.length stream);
        let d p = Point.distance_sq q p in
        let rec nondecreasing = function
          | a :: (b :: _ as rest) -> d a <= d b +. 1e-15 && nondecreasing rest
          | _ -> true
        in
        check_bool "ordered" true (nondecreasing stream);
        check_bool "same multiset" true
          (List.sort Point.compare stream = List.sort Point.compare pts));
    Alcotest.test_case "prefix agrees with k_nearest" `Quick (fun () ->
        let pts = uniform_points 111 120 in
        let t = Pr_quadtree.of_points ~capacity:2 pts in
        let q = Point.make 0.8 0.2 in
        let k = 10 in
        let from_seq =
          List.of_seq (Seq.take k (Pr_quadtree.nearest_seq t q))
        in
        let from_k = Pr_quadtree.k_nearest t k q in
        let d p = Point.distance_sq q p in
        List.iter2
          (fun a b ->
            if d a <> d b then Alcotest.fail "distance order mismatch")
          from_seq from_k);
    Alcotest.test_case "empty tree gives empty sequence" `Quick (fun () ->
        let t = Pr_quadtree.create ~capacity:1 () in
        check_bool "empty" true
          (Seq.is_empty (Pr_quadtree.nearest_seq t (Point.make 0.5 0.5))));
  ]

(* MX-CIF quadtree *)

let random_boxes seed n =
  let rng = Xoshiro.of_int_seed seed in
  List.init n (fun _ ->
      let cx = Popan_rng.Dist.uniform rng ~lo:0.05 ~hi:0.95 in
      let cy = Popan_rng.Dist.uniform rng ~lo:0.05 ~hi:0.95 in
      let hw =
        Float.min (Popan_rng.Dist.exponential rng ~rate:20.0 +. 0.002)
          (Float.min cx (1.0 -. cx) -. 1e-6)
      in
      let hh =
        Float.min (Popan_rng.Dist.exponential rng ~rate:20.0 +. 0.002)
          (Float.min cy (1.0 -. cy) -. 1e-6)
      in
      Box.make ~xmin:(cx -. hw) ~ymin:(cy -. hh) ~xmax:(cx +. hw)
        ~ymax:(cy +. hh))

let mx_cif_tests =
  [
    Alcotest.test_case "empty index" `Quick (fun () ->
        let t = Mx_cif_quadtree.create () in
        check_int "size" 0 (Mx_cif_quadtree.size t);
        check_int "nodes" 1 (Mx_cif_quadtree.node_count t));
    Alcotest.test_case "center-straddling rectangle stays at root" `Quick
      (fun () ->
        let r = Box.make ~xmin:0.4 ~ymin:0.4 ~xmax:0.6 ~ymax:0.6 in
        let t = Mx_cif_quadtree.of_boxes [ r ] in
        check_int "nodes" 1 (Mx_cif_quadtree.node_count t);
        check_int "height" 0 (Mx_cif_quadtree.height t));
    Alcotest.test_case "small corner rectangle descends" `Quick (fun () ->
        let r = Box.make ~xmin:0.01 ~ymin:0.01 ~xmax:0.02 ~ymax:0.02 in
        let t = Mx_cif_quadtree.of_boxes [ r ] in
        check_bool "deep" true (Mx_cif_quadtree.height t >= 4);
        no_violations "inv" (Mx_cif_quadtree.check_invariants t));
    Alcotest.test_case "insert outside bounds rejected" `Quick (fun () ->
        let t = Mx_cif_quadtree.create () in
        Alcotest.check_raises "out"
          (Invalid_argument "Mx_cif_quadtree.insert: rectangle outside bounds")
          (fun () ->
            ignore
              (Mx_cif_quadtree.insert t
                 (Box.make ~xmin:0.5 ~ymin:0.5 ~xmax:1.5 ~ymax:0.9))));
    Alcotest.test_case "mem finds stored rectangles" `Quick (fun () ->
        let boxes = random_boxes 100 80 in
        let t = Mx_cif_quadtree.of_boxes boxes in
        List.iter
          (fun r -> if not (Mx_cif_quadtree.mem t r) then Alcotest.fail "missing")
          boxes);
    Alcotest.test_case "stabbing matches filter" `Quick (fun () ->
        let boxes = random_boxes 101 120 in
        let t = Mx_cif_quadtree.of_boxes boxes in
        let rng = Xoshiro.of_int_seed 102 in
        for _ = 1 to 60 do
          let p = Point.make (Xoshiro.float rng) (Xoshiro.float rng) in
          let got = List.length (Mx_cif_quadtree.stabbing t p) in
          let expected =
            List.length (List.filter (fun r -> Box.contains r p) boxes)
          in
          if got <> expected then Alcotest.fail "stabbing mismatch"
        done);
    Alcotest.test_case "window query matches filter" `Quick (fun () ->
        let boxes = random_boxes 103 120 in
        let t = Mx_cif_quadtree.of_boxes boxes in
        let w = Box.make ~xmin:0.3 ~ymin:0.2 ~xmax:0.7 ~ymax:0.6 in
        check_int "count"
          (List.length (List.filter (Box.intersects w) boxes))
          (List.length (Mx_cif_quadtree.query_box t w)));
    Alcotest.test_case "remove undoes inserts and prunes" `Quick (fun () ->
        let boxes = random_boxes 104 60 in
        let t = Mx_cif_quadtree.of_boxes boxes in
        let t' = List.fold_left Mx_cif_quadtree.remove t boxes in
        check_int "size" 0 (Mx_cif_quadtree.size t');
        check_int "nodes" 1 (Mx_cif_quadtree.node_count t');
        no_violations "inv" (Mx_cif_quadtree.check_invariants t'));
    Alcotest.test_case "histogram counts materialized nodes" `Quick (fun () ->
        let t = Mx_cif_quadtree.of_boxes (random_boxes 105 150) in
        check_int "total" (Mx_cif_quadtree.node_count t)
          (Array.fold_left ( + ) 0 (Mx_cif_quadtree.occupancy_histogram t)));
    prop "invariants after random loads" QCheck2.Gen.(int_range 0 5000)
      (fun seed ->
        let t = Mx_cif_quadtree.of_boxes (random_boxes seed 100) in
        Mx_cif_quadtree.check_invariants t = []);
    prop ~count:30 "invariants under mixed insert/remove"
      QCheck2.Gen.(int_range 0 5000)
      (fun seed ->
        let rng = Xoshiro.of_int_seed seed in
        let pool = Array.of_list (random_boxes (seed + 1) 60) in
        let t = ref (Mx_cif_quadtree.create ()) in
        let live = ref [] in
        for _ = 1 to 100 do
          if !live <> [] && Xoshiro.float rng < 0.45 then begin
            match !live with
            | r :: rest ->
              t := Mx_cif_quadtree.remove !t r;
              live := rest
            | [] -> ()
          end
          else begin
            let r = pool.(Xoshiro.int rng (Array.length pool)) in
            t := Mx_cif_quadtree.insert !t r;
            live := r :: !live
          end
        done;
        Mx_cif_quadtree.check_invariants !t = []
        && Mx_cif_quadtree.size !t = List.length !live);
  ]

(* Region quadtree *)

let random_bitmap seed side ~density =
  let rng = Xoshiro.of_int_seed seed in
  Array.init side (fun _ ->
      Array.init side (fun _ -> Xoshiro.float rng < density))

let bitmap_equal a b =
  Array.for_all2 (fun ra rb -> ra = rb) a b

let region_tests =
  [
    Alcotest.test_case "uniform images are single leaves" `Quick (fun () ->
        let black = Region_quadtree.full ~side:8 ~black:true in
        check_int "leaves" 1 (Region_quadtree.leaf_count black);
        check_int "area" 64 (Region_quadtree.black_area black));
    Alcotest.test_case "bitmap roundtrip" `Quick (fun () ->
        let image = random_bitmap 1 16 ~density:0.4 in
        let t = Region_quadtree.of_bitmap image in
        check_bool "roundtrip" true
          (bitmap_equal image (Region_quadtree.to_bitmap t)));
    Alcotest.test_case "non-square rejected" `Quick (fun () ->
        check_bool "raises" true
          (match Region_quadtree.of_bitmap [| [| true |]; [| true |] |] with
           | _ -> false
           | exception Invalid_argument _ -> true));
    Alcotest.test_case "non-power-of-two rejected" `Quick (fun () ->
        check_bool "raises" true
          (match
             Region_quadtree.of_bitmap
               (Array.init 3 (fun _ -> Array.make 3 false))
           with
           | _ -> false
           | exception Invalid_argument _ -> true));
    Alcotest.test_case "mem matches bitmap" `Quick (fun () ->
        let image = random_bitmap 2 8 ~density:0.5 in
        let t = Region_quadtree.of_bitmap image in
        for y = 0 to 7 do
          for x = 0 to 7 do
            if Region_quadtree.mem t ~x ~y <> image.(y).(x) then
              Alcotest.fail "pixel mismatch"
          done
        done);
    Alcotest.test_case "black area counts pixels" `Quick (fun () ->
        let image = random_bitmap 3 16 ~density:0.3 in
        let expected =
          Array.fold_left
            (fun acc row ->
              Array.fold_left (fun acc b -> if b then acc + 1 else acc) acc row)
            0 image
        in
        check_int "area" expected
          (Region_quadtree.black_area (Region_quadtree.of_bitmap image)));
    Alcotest.test_case "canonical: checkerboard quadrants merge" `Quick
      (fun () ->
        (* An image whose NW quadrant is black and the rest white: 4 top
           leaves, one black. *)
        let image =
          Array.init 8 (fun y -> Array.init 8 (fun x -> x < 4 && y < 4))
        in
        let t = Region_quadtree.of_bitmap image in
        check_int "leaves" 4 (Region_quadtree.leaf_count t);
        check_int "black blocks" 1 (Region_quadtree.black_blocks t);
        no_violations "inv" (Region_quadtree.check_invariants t));
    Alcotest.test_case "complement involution" `Quick (fun () ->
        let t = Region_quadtree.of_bitmap (random_bitmap 4 16 ~density:0.5) in
        check_bool "inv" true
          (Region_quadtree.equal t
             (Region_quadtree.complement (Region_quadtree.complement t))));
    Alcotest.test_case "union with complement is full" `Quick (fun () ->
        let t = Region_quadtree.of_bitmap (random_bitmap 5 16 ~density:0.5) in
        let all = Region_quadtree.union t (Region_quadtree.complement t) in
        check_int "area" 256 (Region_quadtree.black_area all);
        check_int "one leaf" 1 (Region_quadtree.leaf_count all));
    Alcotest.test_case "block size histogram sums to black blocks" `Quick
      (fun () ->
        let t = Region_quadtree.of_bitmap (random_bitmap 6 32 ~density:0.4) in
        let total =
          List.fold_left (fun acc (_, c) -> acc + c) 0
            (Region_quadtree.block_size_histogram t)
        in
        check_int "total" (Region_quadtree.black_blocks t) total);
    Alcotest.test_case "side mismatch rejected" `Quick (fun () ->
        let a = Region_quadtree.full ~side:4 ~black:true in
        let b = Region_quadtree.full ~side:8 ~black:true in
        check_bool "raises" true
          (match Region_quadtree.union a b with
           | _ -> false
           | exception Invalid_argument _ -> true));
    prop ~count:40 "set operations agree with bitmap reference"
      QCheck2.Gen.(pair (int_range 0 5000) (int_range 0 5000))
      (fun (s1, s2) ->
        let img_a = random_bitmap s1 16 ~density:0.45 in
        let img_b = random_bitmap s2 16 ~density:0.55 in
        let a = Region_quadtree.of_bitmap img_a in
        let b = Region_quadtree.of_bitmap img_b in
        let reference f =
          Array.init 16 (fun y ->
              Array.init 16 (fun x -> f img_a.(y).(x) img_b.(y).(x)))
        in
        bitmap_equal
          (Region_quadtree.to_bitmap (Region_quadtree.union a b))
          (reference ( || ))
        && bitmap_equal
             (Region_quadtree.to_bitmap (Region_quadtree.inter a b))
             (reference ( && ))
        && bitmap_equal
             (Region_quadtree.to_bitmap (Region_quadtree.diff a b))
             (reference (fun x y -> x && not y)))
      ;
    Alcotest.test_case "two separated squares are two components" `Quick
      (fun () ->
        let image =
          Array.init 16 (fun y ->
              Array.init 16 (fun x ->
                  (x < 4 && y < 4) || (x >= 12 && y >= 12)))
        in
        let t = Region_quadtree.of_bitmap image in
        check_int "count" 2 (Region_quadtree.component_count t);
        Alcotest.(check (list int)) "sizes" [ 16; 16 ]
          (Region_quadtree.component_sizes t));
    Alcotest.test_case "a ring is one component" `Quick (fun () ->
        let image =
          Array.init 16 (fun y ->
              Array.init 16 (fun x ->
                  let border v = v = 2 || v = 13 in
                  let inside v = v >= 2 && v <= 13 in
                  (border x && inside y) || (border y && inside x)))
        in
        check_int "count" 1
          (Region_quadtree.component_count (Region_quadtree.of_bitmap image)));
    Alcotest.test_case "diagonal pixels are separate (4-connectivity)" `Quick
      (fun () ->
        let image =
          Array.init 4 (fun y -> Array.init 4 (fun x -> x = y && x < 2))
        in
        check_int "count" 2
          (Region_quadtree.component_count (Region_quadtree.of_bitmap image)));
    Alcotest.test_case "empty image has zero components" `Quick (fun () ->
        check_int "count" 0
          (Region_quadtree.component_count (Region_quadtree.full ~side:8 ~black:false)));
    prop ~count:40 "component count matches pixel flood fill"
      QCheck2.Gen.(int_range 0 5000)
      (fun seed ->
        let side = 16 in
        let image = random_bitmap seed side ~density:0.45 in
        let t = Region_quadtree.of_bitmap image in
        (* Reference: BFS flood fill on pixels, 4-connected. *)
        let seen = Array.make_matrix side side false in
        let count = ref 0 in
        let rec flood x y =
          if
            x >= 0 && x < side && y >= 0 && y < side
            && image.(y).(x)
            && not (seen.(y).(x))
          then begin
            seen.(y).(x) <- true;
            flood (x + 1) y;
            flood (x - 1) y;
            flood x (y + 1);
            flood x (y - 1)
          end
        in
        for y = 0 to side - 1 do
          for x = 0 to side - 1 do
            if image.(y).(x) && not seen.(y).(x) then begin
              incr count;
              flood x y
            end
          done
        done;
        Region_quadtree.component_count t = !count);
    prop ~count:40 "results of set operations stay canonical"
      QCheck2.Gen.(pair (int_range 0 5000) (int_range 0 5000))
      (fun (s1, s2) ->
        let a = Region_quadtree.of_bitmap (random_bitmap s1 16 ~density:0.5) in
        let b = Region_quadtree.of_bitmap (random_bitmap s2 16 ~density:0.5) in
        Region_quadtree.check_invariants (Region_quadtree.union a b) = []
        && Region_quadtree.check_invariants (Region_quadtree.inter a b) = []
        && Region_quadtree.check_invariants (Region_quadtree.complement a) = []);
  ]

(* Tree_stats *)

let tree_stats_tests =
  [
    Alcotest.test_case "proportions normalize" `Quick (fun () ->
        let p = Tree_stats.proportions [| 1; 3 |] in
        check_float "p0" 0.25 p.(0);
        check_float "p1" 0.75 p.(1));
    Alcotest.test_case "proportions reject empty" `Quick (fun () ->
        Alcotest.check_raises "empty"
          (Invalid_argument "Tree_stats.proportions: empty histogram")
          (fun () -> ignore (Tree_stats.proportions [| 0; 0 |])));
    Alcotest.test_case "average of histogram" `Quick (fun () ->
        (* One empty leaf and one with 2 points: (0 + 2) / 2 = 1. *)
        check_float "avg" 1.0 (Tree_stats.average_of_histogram [| 1; 0; 1 |]);
        check_float "four classes" 1.5
          (Tree_stats.average_of_histogram [| 1; 1; 1; 1 |]));
    Alcotest.test_case "merge pads ragged" `Quick (fun () ->
        let merged = Tree_stats.merge_histograms [ [| 1 |]; [| 0; 2 |] ] in
        check_int "len" 2 (Array.length merged);
        check_int "c0" 1 merged.(0);
        check_int "c1" 2 merged.(1));
    Alcotest.test_case "mean_proportions averages trees equally" `Quick
      (fun () ->
        (* Tree A: all empty; tree B: all full. Equal weight per tree even
           though B has more leaves. *)
        let m = Tree_stats.mean_proportions [ [| 2; 0 |]; [| 0; 6 |] ] in
        check_float "p0" 0.5 m.(0);
        check_float "p1" 0.5 m.(1));
    Alcotest.test_case "utilization" `Quick (fun () ->
        check_float "u" 0.5 (Tree_stats.utilization ~capacity:2 [| 1; 0; 1 |]));
  ]

let () =
  Alcotest.run "popan_trees"
    [
      ("pr_quadtree", pr_tests);
      ("pr_arena", pr_arena_tests);
      ("pr_arena_churn", pr_arena_churn_tests);
      ("pr_arena_bulk", pr_arena_bulk_tests);
      ("pr_builder", pr_builder_tests);
      ("bintree", bintree_tests);
      ("md_tree", md_tests);
      ("point_quadtree", point_quadtree_tests);
      ("pmr_quadtree", pmr_tests);
      ("pm_quadtree", pm_tests);
      ("ext_hash", ext_hash_tests);
      ("grid_file", grid_file_tests);
      ("excell", excell_tests);
      ("tree_io", tree_io_tests);
      ("region_quadtree", region_tests);
      ("mx_cif_quadtree", mx_cif_tests);
      ("pqueue", pqueue_tests);
      ("nearest_seq", nearest_seq_tests);
      ("tree_stats", tree_stats_tests);
    ]
