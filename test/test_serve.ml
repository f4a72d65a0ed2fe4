(* Tests for the serving subsystem: arena-native query kernels
   (differential against Pr_quadtree, over fresh and churned arenas),
   the shared neighbor queue, epoch snapshots and pinning, the wire
   codecs and framing, and batch byte-identity across job counts. *)

module Point = Popan_geom.Point
module Box = Popan_geom.Box
module Xoshiro = Popan_rng.Xoshiro
module Sampler = Popan_rng.Sampler
module Pqueue = Popan_trees.Pqueue
module Pr_arena = Popan_trees.Pr_arena
module Pr_quadtree = Popan_trees.Pr_quadtree
module Workload = Popan_experiments.Workload
module Codec = Popan_store.Codec
module Parallel = Popan_parallel
module Epoch = Popan_serve.Epoch
module Wire = Popan_serve.Wire
module Server = Popan_serve.Server
module Metrics = Popan_obs.Metrics
module Event = Popan_obs.Event
module Flight = Popan_obs.Flight
module Sketch = Popan_obs.Sketch
module Probe = Popan_obs.Probe

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let prop ?(count = 60) name gen law =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen law)

let uniform_points seed n =
  Sampler.points (Xoshiro.of_int_seed seed) Sampler.Uniform n

let sorted_points ps = List.sort Point.compare ps

(* A random arena that has really churned: build from a base population,
   then run a deterministic insert/delete/update stream through it, so
   slot and node free lists are populated and chains are merge-shuffled. *)
let churned_arena ~seed ~base ~ops =
  let spec =
    Workload.Churn.make ~points:(max 1 base) ~trials:1 ~seed ~ops:(max 1 ops)
      ~insert_fraction:0.5 ~update_fraction:(1.0 /. 3.0) ~drift_sigma:0.05 ()
  in
  let rng = List.hd (Workload.Churn.map_trials spec ~f:(fun _ r -> r)) in
  let st = Workload.Churn.start spec ~rng in
  let arena =
    Pr_arena.of_points_bulk ~capacity:4
      (Array.to_list (Workload.Churn.live st))
  in
  for _ = 1 to ops do
    match Workload.Churn.step spec st with
    | Workload.Churn.Insert p -> Pr_arena.insert arena p
    | Workload.Churn.Delete p -> ignore (Pr_arena.delete arena p : bool)
    | Workload.Churn.Update (p, q) -> ignore (Pr_arena.update arena p q : bool)
  done;
  arena

(* Generators *)

let gen_box =
  QCheck2.Gen.(
    let* x0 = float_bound_inclusive 0.98 in
    let* y0 = float_bound_inclusive 0.98 in
    let* w = float_range 0.01 (1.0 -. x0) in
    let* h = float_range 0.01 (1.0 -. y0) in
    return (Box.make ~xmin:x0 ~ymin:y0 ~xmax:(x0 +. w) ~ymax:(y0 +. h)))

let gen_point =
  QCheck2.Gen.(
    let* x = float_bound_exclusive 1.0 in
    let* y = float_bound_exclusive 1.0 in
    return (Point.make x y))

(* A population with its arena and frozen oracle: half the runs a fresh
   bulk build, half a churned arena (free lists live, chains shuffled).
   The oracle tree is frozen from the arena itself, so both sides hold
   exactly the same multiset whatever the churn stream did. *)
let gen_pair =
  QCheck2.Gen.(
    let* seed = int_range 1 1_000_000 in
    let* churn = bool in
    let arena =
      if churn then churned_arena ~seed ~base:300 ~ops:600
      else
        Pr_arena.of_points_bulk ~capacity:4
          (uniform_points seed (100 + (seed mod 400)))
    in
    return (arena, Pr_arena.freeze arena))

(* The shared neighbor queue *)

let neighbors_tests =
  [
    Alcotest.test_case "create validates" `Quick (fun () ->
        Alcotest.check_raises "k" (Invalid_argument "Pqueue.Neighbors.create: k < 0")
          (fun () -> ignore (Pqueue.Neighbors.create (-1))));
    Alcotest.test_case "k = 0 accepts nothing" `Quick (fun () ->
        let n = Pqueue.Neighbors.create 0 in
        Alcotest.(check (float 0.0)) "worst" 0.0 (Pqueue.Neighbors.worst n);
        Pqueue.Neighbors.offer n ~dist:0.5 "a";
        check_int "size" 0 (Pqueue.Neighbors.size n));
    Alcotest.test_case "keeps the k best, nearest first" `Quick (fun () ->
        let n = Pqueue.Neighbors.create 3 in
        List.iteri
          (fun i d -> Pqueue.Neighbors.offer n ~dist:d i)
          [ 5.0; 1.0; 4.0; 2.0; 3.0 ];
        Alcotest.(check (list int)) "best three" [ 1; 3; 4 ]
          (Pqueue.Neighbors.drain_nearest n));
    Alcotest.test_case "worst tracks the kth distance" `Quick (fun () ->
        let n = Pqueue.Neighbors.create 2 in
        check_bool "empty -> infinite" true
          (Pqueue.Neighbors.worst n = Float.infinity);
        Pqueue.Neighbors.offer n ~dist:3.0 ();
        check_bool "underfull -> infinite" true
          (Pqueue.Neighbors.worst n = Float.infinity);
        Pqueue.Neighbors.offer n ~dist:1.0 ();
        Alcotest.(check (float 0.0)) "full -> kth" 3.0 (Pqueue.Neighbors.worst n);
        Pqueue.Neighbors.offer n ~dist:2.0 ();
        Alcotest.(check (float 0.0)) "evicted" 2.0 (Pqueue.Neighbors.worst n));
  ]

(* Arena-native kernels, differential against the persistent tree *)

(* Points on the 2^-6 lattice, drawn from a patch of at most 12 x 12
   sites so most sites hold duplicates, in an arena built in bulk or by
   inserts (different chain orders); probed at a lattice site or a
   lattice cell's centre, where many distances tie exactly. *)
let gen_lattice_case =
  QCheck2.Gen.(
    let* seed = int_range 1 1_000_000 in
    let* bulk = bool in
    let* probe_centre = bool in
    let* k = int_range 0 24 in
    let rng = Xoshiro.of_int_seed seed in
    let side = 2 + Xoshiro.int rng 11 in
    let x0 = Xoshiro.int rng (64 - side) and y0 = Xoshiro.int rng (64 - side) in
    let site () =
      ( float_of_int (x0 + Xoshiro.int rng side) /. 64.0,
        float_of_int (y0 + Xoshiro.int rng side) /. 64.0 )
    in
    let pts =
      List.init (20 + Xoshiro.int rng 300) (fun _ ->
          let x, y = site () in
          Point.make x y)
    in
    let arena =
      if bulk then Pr_arena.of_points_bulk ~capacity:4 pts
      else Pr_arena.of_points ~capacity:4 pts
    in
    let x, y = site () in
    let p =
      if probe_centre then Point.make (x +. (0.5 /. 64.0)) (y +. (0.5 /. 64.0))
      else Point.make x y
    in
    return (arena, p, k))

let kernel_tests =
  [
    prop ~count:80 "query_box ≡ Pr_quadtree.query_box"
      QCheck2.Gen.(pair gen_pair gen_box)
      (fun ((arena, tree), b) ->
        sorted_points (Pr_arena.query_box arena b)
        = sorted_points (Pr_quadtree.query_box tree b));
    prop ~count:80 "count_in_box ≡ Pr_quadtree.count_in_box"
      QCheck2.Gen.(pair gen_pair gen_box)
      (fun ((arena, tree), b) ->
        Pr_arena.count_in_box arena b = Pr_quadtree.count_in_box tree b);
    prop ~count:60 "count_in_box_visited counts the same points"
      QCheck2.Gen.(pair gen_pair gen_box)
      (fun ((arena, _), b) ->
        let count, visited = Pr_arena.count_in_box_visited arena b in
        count = Pr_arena.count_in_box arena b && visited >= 1);
    prop ~count:80 "k_nearest ≡ Pr_quadtree.k_nearest (points, order)"
      QCheck2.Gen.(triple gen_pair gen_point (int_range 0 20))
      (fun ((arena, tree), p, k) ->
        (* Point for point and in order: both walks offer the same
           points in the same order (closest quadrant first, ties by
           quadrant index; each leaf in chain order), and the arena's
           flat collector takes {!Pqueue}'s heap steps, so even ties
           keep and order the same points. *)
        Pr_arena.k_nearest arena k p = Pr_quadtree.k_nearest tree k p);
    prop ~count:120 "k_nearest ≡ Pr_quadtree.k_nearest on a lattice (ties)"
      gen_lattice_case
      (fun (arena, p, k) ->
        Pr_arena.k_nearest arena k p
        = Pr_quadtree.k_nearest (Pr_arena.freeze arena) k p);
    prop ~count:80 "nearest ≡ Pr_quadtree.nearest (distance)"
      QCheck2.Gen.(pair gen_pair gen_point)
      (fun ((arena, tree), p) ->
        match (Pr_arena.nearest arena p, Pr_quadtree.nearest tree p) with
        | None, None -> true
        | Some a, Some t ->
          Point.distance_sq p a = Point.distance_sq p t
          && Pr_quadtree.mem tree a
        | _ -> false);
    prop ~count:80 "cell_at ≡ Pr_quadtree.leaf_at"
      QCheck2.Gen.(pair gen_pair gen_point)
      (fun ((arena, tree), p) ->
        let da, ba, pa = Pr_arena.cell_at arena p in
        let dt, bt, pt = Pr_quadtree.leaf_at tree p in
        da = dt && Box.equal ba bt && sorted_points pa = sorted_points pt);
    prop ~count:80 "mem ≡ Pr_quadtree.mem"
      QCheck2.Gen.(pair gen_pair gen_point)
      (fun ((arena, tree), p) ->
        (* Probe both a random point (almost surely absent) and a point
           known to be stored. *)
        Pr_arena.mem arena p = Pr_quadtree.mem tree p
        && (Pr_arena.is_empty arena
           || List.for_all (Pr_arena.mem arena)
                (match Pr_arena.points arena with
                | [] -> []
                | q :: _ -> [ q ])));
    Alcotest.test_case "k_nearest validates" `Quick (fun () ->
        let arena = Pr_arena.of_points_bulk ~capacity:4 (uniform_points 7 50) in
        Alcotest.check_raises "k" (Invalid_argument "Pr_arena.k_nearest: k < 0")
          (fun () -> ignore (Pr_arena.k_nearest arena (-1) (Point.make 0.5 0.5))));
    Alcotest.test_case "cell_at validates" `Quick (fun () ->
        let arena = Pr_arena.of_points_bulk ~capacity:4 (uniform_points 7 50) in
        Alcotest.check_raises "outside"
          (Invalid_argument "Pr_arena.cell_at: point outside bounds") (fun () ->
            ignore (Pr_arena.cell_at arena (Point.make 2.0 0.5))));
  ]

(* The pruned kernels against the walk without pruning, and the
   boundary semantics both must share: half-open edges, targets that
   coincide with cells, degenerate boxes, duplicate chains at max
   depth. *)

(* The walk without pruning, as the oracle: [Pr_quadtree]'s box descent
   over the frozen arena enters every node whose cell meets the target
   and tests every stored point. [freeze] keeps each leaf's chain
   order, so its range answers come in the arena kernel's order. *)
let query_box_unpruned arena b = Pr_quadtree.query_box (Pr_arena.freeze arena) b

let count_in_box_unpruned arena b =
  Pr_quadtree.count_in_box (Pr_arena.freeze arena) b

(* That walk's count with the nodes it enters, one per call. *)
let count_in_box_unpruned_visited arena b =
  let tree = Pr_arena.freeze arena in
  let rec go node box =
    if not (Box.intersects box b) then (0, 1)
    else
      match node with
      | Pr_quadtree.Raw.Leaf pts -> (List.length (List.filter (Box.contains b) pts), 1)
      | Pr_quadtree.Raw.Node children ->
        let count = ref 0 and visited = ref 1 in
        Array.iteri
          (fun i c ->
            let n, v = go c (Box.child box (Popan_geom.Quadrant.of_index i)) in
            count := !count + n;
            visited := !visited + v)
          children;
        (!count, !visited)
  in
  go (Pr_quadtree.Raw.root tree) (Pr_quadtree.bounds tree)

let dup_arena ~copies =
  (* A duplicate chain saturated past the split depth: every copy of
     the point lands in the same deepest cell, so the chain outgrows
     [capacity] where splitting can no longer separate it. *)
  let arena = Pr_arena.create ~capacity:2 () in
  let p = Point.make 0.3 0.7 in
  for _ = 1 to copies do
    Pr_arena.insert arena p
  done;
  arena

(* A box whose edges sit exactly on stored coordinates or on dyadic
   cell edges (k / 2^d, d <= 8), where a point test's half-open
   compares decide; [None] when the draw leaves an empty extent. *)
let edge_box arena seed =
  let rng = Xoshiro.of_int_seed seed in
  let coords =
    Array.of_list
      (List.concat_map
         (fun (p : Point.t) -> [ p.Point.x; p.Point.y ])
         (Pr_arena.points arena))
  in
  let edge () =
    if Array.length coords > 0 && Xoshiro.bool rng then
      coords.(Xoshiro.int rng (Array.length coords))
    else
      let d = 1 + Xoshiro.int rng 8 in
      float_of_int (Xoshiro.int rng ((1 lsl d) + 1)) /. float_of_int (1 lsl d)
  in
  let span () =
    let a = edge () and b = edge () in
    (Float.min a b, Float.max a b)
  in
  let xmin, xmax = span () in
  let ymin, ymax = span () in
  if xmin < xmax && ymin < ymax then Some (Box.make ~xmin ~ymin ~xmax ~ymax)
  else None

let pruning_tests =
  [
    prop ~count:150 "count_in_box on point and cell edges ≡ Pr_quadtree"
      QCheck2.Gen.(pair gen_pair (int_range 1 1_000_000))
      (fun ((arena, tree), seed) ->
        match edge_box arena seed with
        | None -> true
        | Some b ->
          Pr_arena.count_in_box arena b = Pr_quadtree.count_in_box tree b
          && fst (Pr_arena.count_in_box_visited arena b)
             = Pr_quadtree.count_in_box tree b);
    Alcotest.test_case "a box with a NaN edge counts nothing" `Quick (fun () ->
        (* The per-query rule refuses such a box before any kernel
           runs; the kernel itself still counts 0, since every compare
           against NaN fails. *)
        let arena = churned_arena ~seed:31 ~base:600 ~ops:600 in
        let nan = Float.nan in
        List.iter
          (fun (name, b) ->
            check_int name 0 (Pr_arena.count_in_box arena b);
            check_int (name ^ ", visited entry") 0
              (fst (Pr_arena.count_in_box_visited arena b)))
          [
            ("xmin", { Box.xmin = nan; ymin = 0.0; xmax = 1.0; ymax = 1.0 });
            ("ymin", { Box.xmin = 0.0; ymin = nan; xmax = 1.0; ymax = 1.0 });
            ("xmax", { Box.xmin = 0.0; ymin = 0.0; xmax = nan; ymax = 1.0 });
            ("ymax", { Box.xmin = 0.0; ymin = 0.0; xmax = 1.0; ymax = nan });
          ]);
    prop ~count:100 "query_box ≡ query_box_unpruned (exact order)"
      QCheck2.Gen.(pair gen_pair gen_box)
      (fun ((arena, _), b) ->
        (* Element-for-element, not as multisets: the bulk subtree drain
           must emit exactly the sequence the per-leaf walk does. *)
        Pr_arena.query_box arena b = query_box_unpruned arena b);
    prop ~count:100 "count_in_box ≡ count_in_box_unpruned"
      QCheck2.Gen.(pair gen_pair gen_box)
      (fun ((arena, _), b) ->
        Pr_arena.count_in_box arena b = count_in_box_unpruned arena b);
    prop ~count:80 "pruned visits ≤ unpruned visits, same count"
      QCheck2.Gen.(pair gen_pair gen_box)
      (fun ((arena, _), b) ->
        let count_p, visited_p = Pr_arena.count_in_box_visited arena b in
        let count_u, visited_u = count_in_box_unpruned_visited arena b in
        count_p = count_u && visited_p <= visited_u && visited_p >= 1);
    Alcotest.test_case "half-open edges: low edge in, high edge out" `Quick
      (fun () ->
        let pts =
          [
            Point.make 0.25 0.25;
            Point.make 0.5 0.5;
            Point.make 0.5 0.25;
            Point.make 0.25 0.5;
            Point.make 0.375 0.375;
          ]
        in
        let arena = Pr_arena.of_points_bulk ~capacity:1 pts in
        let b = Box.make ~xmin:0.25 ~ymin:0.25 ~xmax:0.5 ~ymax:0.5 in
        (* Only the low-corner point and the interior point: every
           point with x = xmax or y = ymax is outside the half-open
           box. *)
        check_int "count" 2 (Pr_arena.count_in_box arena b);
        Alcotest.(check (list (pair (float 0.0) (float 0.0))))
          "query" [ (0.25, 0.25); (0.375, 0.375) ]
          (List.sort compare
             (List.map
                (fun (p : Point.t) -> (p.Point.x, p.Point.y))
                (Pr_arena.query_box arena b))));
    Alcotest.test_case "target exactly a cell triggers containment" `Quick
      (fun () ->
        (* [0.25, 0.5) x [0.25, 0.5) is precisely a depth-2 cell: the
           pruned kernel must stop at that subtree's root while the
           unpruned one walks all its leaves — and both agree on the
           answer, including the cell's own boundary points. *)
        let rng = Xoshiro.of_int_seed 55 in
        let pts =
          Point.make 0.25 0.25 :: Point.make 0.5 0.5
          :: List.init 600 (fun _ ->
                 Point.make (Xoshiro.float rng) (Xoshiro.float rng))
        in
        let arena = Pr_arena.of_points_bulk ~capacity:2 pts in
        let b = Box.make ~xmin:0.25 ~ymin:0.25 ~xmax:0.5 ~ymax:0.5 in
        check_int "count agrees" (count_in_box_unpruned arena b)
          (Pr_arena.count_in_box arena b);
        check_bool "range agrees" true
          (Pr_arena.query_box arena b = query_box_unpruned arena b);
        let _, visited_p = Pr_arena.count_in_box_visited arena b in
        let _, visited_u = count_in_box_unpruned_visited arena b in
        check_bool "containment actually pruned" true (visited_p < visited_u));
    Alcotest.test_case "whole unit square counts everything in O(root)" `Quick
      (fun () ->
        let arena = churned_arena ~seed:23 ~base:800 ~ops:1_600 in
        check_int "count = size" (Pr_arena.size arena)
          (Pr_arena.count_in_box arena Box.unit);
        let _, visited = Pr_arena.count_in_box_visited arena Box.unit in
        check_int "root containment: one visit" 1 visited);
    Alcotest.test_case "degenerate point and line boxes are empty" `Quick
      (fun () ->
        (* [Box.make] rejects zero-measure boxes, but the record type is
           open: a client can ship one over the wire. Half-open
           semantics make them contain nothing — even when their edges
           pass straight through stored points. *)
        let arena =
          Pr_arena.of_points_bulk ~capacity:2
            (Point.make 0.3 0.7 :: uniform_points 3 300)
        in
        let point_box = { Box.xmin = 0.3; ymin = 0.7; xmax = 0.3; ymax = 0.7 } in
        let line_box = { Box.xmin = 0.0; ymin = 0.7; xmax = 1.0; ymax = 0.7 } in
        List.iter
          (fun b ->
            check_int "count empty" 0 (Pr_arena.count_in_box arena b);
            check_int "count unpruned empty" 0
              (count_in_box_unpruned arena b);
            check_bool "range empty" true (Pr_arena.query_box arena b = []))
          [ point_box; line_box ]);
    Alcotest.test_case "duplicate chain at max depth: count and drain" `Quick
      (fun () ->
        let copies = 40 in
        let arena = dup_arena ~copies in
        check_int "all copies counted" copies
          (Pr_arena.count_in_box arena Box.unit);
        check_int "drain returns every copy" copies
          (List.length (Pr_arena.query_box arena Box.unit));
        (* A tight box around the point still finds the whole chain;
           one epsilon to the side finds none of it. *)
        let hit = Box.make ~xmin:0.29 ~ymin:0.69 ~xmax:0.31 ~ymax:0.71 in
        let miss = Box.make ~xmin:0.31 ~ymin:0.69 ~xmax:0.33 ~ymax:0.71 in
        check_int "tight box" copies (Pr_arena.count_in_box arena hit);
        check_int "tight box unpruned" copies
          (count_in_box_unpruned arena hit);
        check_int "miss box" 0 (Pr_arena.count_in_box arena miss);
        match Pr_arena.nearest arena (Point.make 0.9 0.1) with
        | Some p ->
          check_bool "nearest finds the dup point" true
            (p.Point.x = 0.3 && p.Point.y = 0.7)
        | None -> Alcotest.fail "nearest found nothing");
    Alcotest.test_case "count gate: a 90% box visits a fifth of the walk"
      `Quick (fun () ->
        (* Containment pruning's claim as a count, which no host can
           move: over 2^16 uniform points at capacity 8, a centred
           square of area 0.9 is answered from the frontier of its
           edges, at most a fifth of the nodes the unpruned walk
           enters (about a ninth when this gate was set). *)
        let arena =
          Pr_arena.of_points_bulk ~capacity:8 (uniform_points 424242 65_536)
        in
        let side = sqrt 0.9 in
        let lo = 0.5 -. (side /. 2.0) and hi = 0.5 +. (side /. 2.0) in
        let b = Box.make ~xmin:lo ~ymin:lo ~xmax:hi ~ymax:hi in
        let count, visited = Pr_arena.count_in_box_visited arena b in
        let count', walked = count_in_box_unpruned_visited arena b in
        check_int "same count" count' count;
        if 5 * visited > walked then
          Alcotest.failf "pruned count visited %d nodes, unpruned %d (%.1fx)"
            visited walked
            (float_of_int walked /. float_of_int visited));
  ]

(* Snapshots *)

let arena_bytes a = Codec.encode Codec.pr_quadtree (Pr_arena.freeze a)

let snapshot_tests =
  [
    prop ~count:30 "snapshot is a faithful independent copy"
      QCheck2.Gen.(int_range 1 1_000_000)
      (fun seed ->
        let arena = churned_arena ~seed ~base:200 ~ops:400 in
        let snap = Pr_arena.snapshot arena in
        let before = arena_bytes arena in
        (* The copy matches, passes its own audit, and survives churn on
           the source untouched. *)
        arena_bytes snap = before
        && Pr_arena.check_invariants snap = []
        && begin
             List.iter
               (fun p -> ignore (Pr_arena.delete arena p : bool))
               (Pr_arena.points arena);
             Pr_arena.insert arena (Point.make 0.25 0.75);
             arena_bytes snap = before
           end);
    Alcotest.test_case "snapshot of an empty arena" `Quick (fun () ->
        let arena = Pr_arena.create ~capacity:4 () in
        let snap = Pr_arena.snapshot arena in
        check_int "size" 0 (Pr_arena.size snap);
        Alcotest.(check (list string)) "invariants" []
          (Pr_arena.check_invariants snap));
  ]

(* Epochs: lifecycle, pinning, reclamation *)

let epoch_tests =
  [
    Alcotest.test_case "publish supersedes, unpinned epochs retire" `Quick
      (fun () ->
        let arena = Pr_arena.of_points_bulk ~capacity:4 (uniform_points 3 100) in
        let t = Epoch.create (Pr_arena.snapshot arena) in
        check_int "boot epoch" 0 (Epoch.current_id t);
        check_int "live" 1 (Epoch.live_count t);
        ignore (Epoch.publish t (Pr_arena.snapshot arena) : Epoch.epoch);
        check_int "next epoch" 1 (Epoch.current_id t);
        (* Nobody pinned epoch 0: it is gone. *)
        check_int "live after publish" 1 (Epoch.live_count t);
        Alcotest.(check (list string)) "invariants" [] (Epoch.check_invariants t));
    Alcotest.test_case "a pinned epoch survives concurrent deletes" `Quick
      (fun () ->
        (* The kill-mid-batch scenario: a reader pins, the writer deletes
           every point and publishes twice; the pinned epoch's contents
           must be byte-identical throughout, and reclamation must wait
           for the unpin. *)
        let live = Pr_arena.of_points_bulk ~capacity:4 (uniform_points 5 500) in
        let t = Epoch.create (Pr_arena.snapshot live) in
        let pinned = Epoch.pin t in
        let before = arena_bytes (Epoch.arena pinned) in
        List.iter
          (fun p -> ignore (Pr_arena.delete live p : bool))
          (Pr_arena.points live);
        ignore (Epoch.publish t (Pr_arena.snapshot live) : Epoch.epoch);
        ignore (Epoch.publish t (Pr_arena.snapshot live) : Epoch.epoch);
        check_bool "pinned epoch unchanged" true
          (arena_bytes (Epoch.arena pinned) = before);
        check_int "pinned + current live" 2 (Epoch.live_count t);
        Alcotest.(check (list string)) "invariants" [] (Epoch.check_invariants t);
        Epoch.unpin t pinned;
        check_int "reclaimed after unpin" 1 (Epoch.live_count t);
        Alcotest.(check (list string)) "invariants after unpin" []
          (Epoch.check_invariants t));
    Alcotest.test_case "unpin validates" `Quick (fun () ->
        let arena = Pr_arena.of_points_bulk ~capacity:4 (uniform_points 9 50) in
        let t = Epoch.create (Pr_arena.snapshot arena) in
        let e = Epoch.current t in
        Alcotest.check_raises "not pinned"
          (Invalid_argument "Epoch.unpin: epoch not pinned") (fun () ->
            Epoch.unpin t e));
  ]

(* Wire codecs and framing *)

let gen_query =
  QCheck2.Gen.(
    let* tag = int_range 0 4 in
    match tag with
    | 0 -> map (fun b -> Wire.Range b) gen_box
    | 1 -> map (fun b -> Wire.Count b) gen_box
    | 2 ->
      let* k = int_range 0 16 in
      map (fun p -> Wire.Knn (k, p)) gen_point
    | 3 -> map (fun p -> Wire.Nearest p) gen_point
    | _ -> map (fun p -> Wire.Cell p) gen_point)

let gen_request =
  QCheck2.Gen.(
    let* tag = int_range 0 6 in
    match tag with
    | 0 | 1 | 2 ->
      let* qs = array_size (int_range 0 50) gen_query in
      return (Wire.Batch qs)
    | 3 -> return Wire.Stats
    | 4 -> return Wire.Telemetry
    | _ -> return Wire.Quit)

let gen_answer =
  QCheck2.Gen.(
    let* tag = int_range 0 3 in
    match tag with
    | 0 -> map (fun ps -> Wire.Points ps) (array_size (int_range 0 20) gen_point)
    | 1 -> map (fun n -> Wire.Count_of n) int
    | 2 ->
      let* depth = int_range 0 42 in
      let* b = gen_box in
      map
        (fun ps -> Wire.Cell_info (depth, b, ps))
        (array_size (int_range 0 9) gen_point)
    | _ -> map (fun m -> Wire.Rejected m) string_small)

(* Responses of every arm but telemetry, now and then one over the
   scratch's 1 MiB retention (70,000 points), so consecutive frames
   run through a warm scratch, a grown one and a dropped one. *)
let gen_response =
  QCheck2.Gen.(
    let* tag = int_range 0 6 in
    match tag with
    | 0 | 1 | 2 ->
      let* epoch = int in
      map
        (fun answers -> Wire.Answers { epoch; answers })
        (array_size (int_range 0 40) gen_answer)
    | 3 ->
      map
        (fun (epoch, size, batches, live_epochs) ->
          Wire.Stats_info { epoch; size; batches; live_epochs })
        (tup4 nat nat nat nat)
    | 4 -> map (fun m -> Wire.Refused m) string_small
    | 5 -> return Wire.Bye
    | _ ->
      let* p = gen_point in
      return
        (Wire.Answers { epoch = 7; answers = [| Wire.Points (Array.make 70_000 p) |] }))

let roundtrip codec v = Codec.decode codec (Codec.encode codec v) = v

(* The bytes [Wire.write_*] put on a channel, against the length prefix
   and [Codec.to_artifact] of each frame — the framing the protocol
   specifies, under its fixed frame key "serve". *)
let frames_match frames =
  let path = Filename.temp_file "popan" ".frames" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out_bin path in
      List.iter
        (function
          | Either.Left r -> Wire.write_request oc r
          | Either.Right r -> Wire.write_response oc r)
        frames;
      close_out oc;
      let written = In_channel.with_open_bin path In_channel.input_all in
      let expected =
        List.map
          (fun frame ->
            let artifact =
              match frame with
              | Either.Left r ->
                Codec.to_artifact ~kind:Wire.request_kind ~version:Wire.version
                  ~key:"serve" Wire.request r
              | Either.Right r ->
                Codec.to_artifact ~kind:Wire.response_kind ~version:Wire.version
                  ~key:"serve" Wire.response r
            in
            let n = String.length artifact in
            String.init 4 (fun i -> Char.chr ((n lsr (8 * (3 - i))) land 0xff))
            ^ artifact)
          frames
      in
      written = String.concat "" expected)

let frame_roundtrip v =
  let path = Filename.temp_file "popan" ".frame" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out_bin path in
      Wire.write_request oc v;
      close_out oc;
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          match Wire.read_request ic with
          | Some (Ok v') -> v' = v
          | _ -> false))

let corrupt_frame_rejected ~mangle =
  let path = Filename.temp_file "popan" ".frame" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out_bin path in
      Wire.write_request oc (Wire.Batch [| Wire.Count Box.unit |]);
      close_out oc;
      let raw =
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      let raw = mangle raw in
      let oc = open_out_bin path in
      output_string oc raw;
      close_out oc;
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          match Wire.read_request ic with
          | Some (Error _) -> true
          | _ -> false))

let wire_tests =
  [
    prop ~count:100 "request codec round-trips" gen_request (fun r ->
        roundtrip Wire.request r);
    prop ~count:60 "query codec round-trips" gen_query (fun q ->
        roundtrip Wire.query q);
    prop ~count:40 "framed request round-trips" gen_request frame_roundtrip;
    Alcotest.test_case "truncated frame is rejected" `Quick (fun () ->
        check_bool "truncated" true
          (corrupt_frame_rejected ~mangle:(fun raw ->
               String.sub raw 0 (String.length raw - 3))));
    Alcotest.test_case "corrupted frame is rejected" `Quick (fun () ->
        check_bool "flipped byte" true
          (corrupt_frame_rejected ~mangle:(fun raw ->
               let b = Bytes.of_string raw in
               let i = String.length raw - 1 in
               Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff));
               Bytes.to_string b)));
    Alcotest.test_case "an oversized frame is refused, and serving goes on"
      `Quick (fun () ->
        let huge = Wire.Refused (String.make (Wire.max_frame + 1) 'x') in
        let path = Filename.temp_file "popan" ".frame" in
        Fun.protect
          ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
          (fun () ->
            let oc = open_out_bin path in
            (match Wire.write_response oc huge with
            | () -> Alcotest.fail "a frame over the limit was written"
            | exception Wire.Frame_too_large n ->
              check_bool "reports the frame size" true (n > Wire.max_frame));
            check_int "nothing written" 0 (pos_out oc);
            (* The server's writer answers a short refusal in its place
               and the stream stays framed for the next response. *)
            let stats =
              Wire.Stats_info { epoch = 3; size = 10; batches = 4; live_epochs = 1 }
            in
            Server.respond oc huge;
            Server.respond oc stats;
            close_out oc;
            check_bool "short" true ((Unix.stat path).Unix.st_size < 1024);
            let ic = open_in_bin path in
            Fun.protect
              ~finally:(fun () -> close_in ic)
              (fun () ->
                (match Wire.read_response ic with
                | Some (Ok (Wire.Refused reason)) ->
                  check_bool "says why" true
                    (String.length reason < 200
                    && String.sub reason 0 9 = "response ")
                | _ -> Alcotest.fail "expected a short Refused");
                match Wire.read_response ic with
                | Some (Ok r) -> check_bool "next response intact" true (r = stats)
                | _ -> Alcotest.fail "the stream lost its framing")));
    Alcotest.test_case "unknown choice tag is malformed" `Quick (fun () ->
        match Codec.decode Wire.query "\xff" with
        | exception Failure _ -> ()
        | _ -> Alcotest.fail "tag 255 decoded");
    prop ~count:80 "written frames are the prefixed artifact bytes"
      QCheck2.Gen.(
        list_size (int_range 1 6)
          (oneof
             [ map Either.left gen_request; map Either.right gen_response ]))
      frames_match;
  ]

(* Batched execution: byte-identity across job counts *)

let answers_bytes answers =
  Codec.encode (Codec.array Wire.answer) answers

(* [n] queries of the five kinds in turn, anchored uniformly. *)
let mixed_batch rng n =
  Array.init n (fun i ->
      let p = Point.make (Xoshiro.float rng) (Xoshiro.float rng) in
      match i mod 5 with
      | 0 ->
        let w = 0.01 +. (0.2 *. Xoshiro.float rng) in
        let x = (1.0 -. w) *. Xoshiro.float rng in
        let y = (1.0 -. w) *. Xoshiro.float rng in
        Wire.Range (Box.make ~xmin:x ~ymin:y ~xmax:(x +. w) ~ymax:(y +. w))
      | 1 ->
        Wire.Count
          (Box.make ~xmin:0.0 ~ymin:0.0 ~xmax:(max 0.01 p.Point.x)
             ~ymax:(max 0.01 p.Point.y))
      | 2 -> Wire.Knn (1 + (i mod 16), p)
      | 3 -> Wire.Nearest p
      | _ -> Wire.Cell p)

(* The schedule's packed keys, sorted as the scheduler documents:
   [Array.sort compare] on anchor code above arrival index. *)
let sorted_schedule queries =
  let anchor (q : Wire.query) =
    match q with
    | Wire.Range b | Wire.Count b ->
      Popan_geom.Morton.encode_clamped (Point.make b.Box.xmin b.Box.ymin)
    | Wire.Knn (_, p) | Wire.Nearest p | Wire.Cell p ->
      Popan_geom.Morton.encode_clamped p
  in
  let keys = Array.mapi (fun i q -> (anchor q lsl 20) lor i) queries in
  Array.sort compare keys;
  keys

(* A batch of 2 to 4,096 queries of every kind whose anchors come from
   one to six values (some outside the unit square, so clamped), so
   most keys tie on their anchor. *)
let gen_schedule_batch =
  QCheck2.Gen.(
    let* seed = int_range 1 1_000_000 in
    let* n = int_range 2 4096 in
    let* m = int_range 1 6 in
    let rng = Xoshiro.of_int_seed seed in
    let anchors =
      Array.init m (fun _ ->
          Point.make
            ((1.2 *. Xoshiro.float rng) -. 0.1)
            ((1.2 *. Xoshiro.float rng) -. 0.1))
    in
    return
      (Array.init n (fun _ ->
           let p = anchors.(Xoshiro.int rng m) in
           let b = { Box.xmin = p.Point.x; ymin = p.Point.y; xmax = 2.0; ymax = 2.0 } in
           match Xoshiro.int rng 5 with
           | 0 -> Wire.Range b
           | 1 -> Wire.Count b
           | 2 -> Wire.Knn (1 + Xoshiro.int rng 16, p)
           | 3 -> Wire.Nearest p
           | _ -> Wire.Cell p)))

let batch_tests =
  [
    prop ~count:200 "schedule_order ≡ Array.sort compare on the packed keys"
      gen_schedule_batch
      (fun queries ->
        Server.schedule_order queries = Some (sorted_schedule queries));
    Alcotest.test_case "batches of 0, 1 and 2^20 queries keep arrival order"
      `Quick (fun () ->
        let q = Wire.Nearest (Point.make 0.5 0.5) in
        check_bool "0" true (Server.schedule_order [||] = None);
        check_bool "1" true (Server.schedule_order [| q |] = None);
        check_bool "2^20" true
          (Server.schedule_order (Array.make (1 lsl 20) q) = None));
    Alcotest.test_case "batch results byte-identical at jobs 1/2/4" `Quick
      (fun () ->
        let arena = churned_arena ~seed:11 ~base:2_000 ~ops:4_000 in
        let queries = mixed_batch (Xoshiro.of_int_seed 42) 3_000 in
        let run jobs =
          Parallel.Pool.with_pool ~jobs (fun pool ->
              answers_bytes (Server.run_batch pool arena queries))
        in
        let sequential = Array.map (Server.eval arena) queries in
        let b1 = run 1 and b2 = run 2 and b4 = run 4 in
        check_bool "jobs 1 = sequential" true (b1 = answers_bytes sequential);
        check_bool "jobs 2 = jobs 1" true (b2 = b1);
        check_bool "jobs 4 = jobs 1" true (b4 = b1));
  ]

(* The server loop end to end, in process *)

let server_tests =
  [
    Alcotest.test_case "batches answer from a pinned epoch while churning"
      `Quick (fun () ->
        let config =
          {
            Server.default_config with
            base_points = 1_000;
            churn_ops = 200;
            jobs = Some 2;
          }
        in
        let t = Server.create config in
        Fun.protect
          ~finally:(fun () -> Server.shutdown t)
          (fun () ->
            let queries =
              Array.init 500 (fun i ->
                  Wire.Knn (1 + (i mod 8), Point.make 0.3 0.7))
            in
            let e0, a0 = Server.run_queries t queries in
            let e1, a1 = Server.run_queries t queries in
            check_int "first batch epoch" 0 e0;
            check_int "second batch epoch" 1 e1;
            check_int "answers" 500 (Array.length a0);
            check_int "answers" 500 (Array.length a1);
            Alcotest.(check (list string)) "epoch invariants" []
              (Epoch.check_invariants (Server.epochs t));
            check_int "batches" 2 (Server.batches t)));
    Alcotest.test_case "handle Stats and Quit" `Quick (fun () ->
        let config =
          { Server.default_config with base_points = 100; churn_ops = 0 }
        in
        let t = Server.create config in
        Fun.protect
          ~finally:(fun () -> Server.shutdown t)
          (fun () ->
            (match Server.handle t Wire.Stats with
            | Wire.Stats_info { epoch; size; batches; live_epochs }, true ->
              check_int "epoch" 0 epoch;
              check_int "size" 100 size;
              check_int "batches" 0 batches;
              check_int "live" 1 live_epochs
            | _ -> Alcotest.fail "bad stats response");
            match Server.handle t Wire.Quit with
            | Wire.Bye, false -> ()
            | _ -> Alcotest.fail "bad quit response"));
    Alcotest.test_case "an empty server's churn stream starts empty" `Quick
      (fun () ->
        (* With base_points = 0 the stream must hold exactly what the
           arena holds: no phantom first point that the arena never
           received. One op per batch, so the arena is checked against
           an independently driven empty stream after every op. *)
        let config =
          {
            Server.default_config with
            base_points = 0;
            churn_ops = 1;
            jobs = Some 1;
          }
        in
        let spec =
          Workload.Churn.make ~points:1 ~trials:1 ~seed:config.seed ~ops:1
            ~insert_fraction:config.insert_fraction
            ~update_fraction:config.update_fraction
            ~drift_sigma:config.drift_sigma ()
        in
        let rng = List.hd (Workload.Churn.map_trials spec ~f:(fun _ r -> r)) in
        let stream = Workload.Churn.restore ~rng ~live:[||] ~ops_done:0 in
        let t = Server.create config in
        let size () =
          match Server.handle t Wire.Stats with
          | Wire.Stats_info { size; _ }, _ -> size
          | _ -> Alcotest.fail "bad stats response"
        in
        Fun.protect
          ~finally:(fun () -> Server.shutdown t)
          (fun () ->
            check_int "empty at start" 0 (size ());
            for op = 1 to 40 do
              ignore (Server.run_queries t [| Wire.Count Box.unit |]);
              ignore (Workload.Churn.step spec stream : Workload.Churn.event);
              check_int
                (Printf.sprintf "arena size = stream live count after op %d" op)
                (Workload.Churn.live_count stream) (size ())
            done));
  ]

(* The Telemetry exchange: codec payloads with real sketch snapshots,
   framing rejection on the response side, the instrumented evaluator's
   answer identity, and a live scrape through [handle]. *)

let sample_telemetry () =
  let s = Sketch.create () in
  for i = 1 to 200 do
    Sketch.record s (float_of_int i *. 1e-4)
  done;
  Sketch.record s 0.0;
  let entry i =
    {
      Flight.ts = 1e9 +. float_of_int i;
      domain = i mod 3;
      kind = i mod 5;
      epoch = i;
      latency = 1e-5 *. float_of_int i;
      visited = 3 * i;
      note = (if i mod 7 = 0 then "cell out of tree" else "");
    }
  in
  {
    Wire.epoch = 3;
    size = 10_000;
    batches = 12;
    live_epochs = 2;
    metrics_json = {|{"schema":"popan-metrics-2"}|};
    prometheus = "# TYPE popan_x counter\npopan_x 1\n";
    sketches =
      [|
        ("serve.latency.range", Sketch.snapshot s);
        ("serve.visited.range", Sketch.snapshot s);
      |];
    events =
      [| {|{"ts":1.0,"seq":0,"level":"info","event":"serve.epoch.publish"}|} |];
    flight = Array.init 9 entry;
  }

let corrupt_response_frame_rejected ~mangle =
  let path = Filename.temp_file "popan" ".frame" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out_bin path in
      Wire.write_response oc (Wire.Telemetry_info (sample_telemetry ()));
      close_out oc;
      let raw =
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      let raw = mangle raw in
      let oc = open_out_bin path in
      output_string oc raw;
      close_out oc;
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          match Wire.read_response ic with
          | Some (Error _) -> true
          | _ -> false))

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let with_telemetry f =
  Metrics.reset ();
  Event.reset ();
  Flight.reset ();
  Metrics.set_enabled true;
  Flight.enable ();
  Fun.protect
    ~finally:(fun () ->
      Metrics.set_enabled false;
      Flight.disable ();
      Metrics.reset ();
      Event.reset ();
      Flight.reset ())
    f

let telemetry_tests =
  [
    Alcotest.test_case "telemetry response round-trips with snapshots intact"
      `Quick (fun () ->
        let t = sample_telemetry () in
        check_bool "codec round-trip" true
          (roundtrip Wire.response (Wire.Telemetry_info t));
        match Codec.decode Wire.response (Codec.encode Wire.response (Wire.Telemetry_info t)) with
        | Wire.Telemetry_info t' ->
          let _, snap = t'.Wire.sketches.(0) in
          check_bool "decoded snapshot still validates" true
            (Result.is_ok (Sketch.of_snapshot snap));
          check_bool "quantiles survive the wire" true
            (Sketch.snapshot_quantile snap 0.9
            = Sketch.snapshot_quantile (snd t.Wire.sketches.(0)) 0.9)
        | _ -> Alcotest.fail "decoded to a different response");
    Alcotest.test_case "truncated telemetry response frame is rejected"
      `Quick (fun () ->
        check_bool "truncated" true
          (corrupt_response_frame_rejected ~mangle:(fun raw ->
               String.sub raw 0 (String.length raw - 3))));
    Alcotest.test_case "corrupted telemetry response frame is rejected"
      `Quick (fun () ->
        check_bool "flipped byte" true
          (corrupt_response_frame_rejected ~mangle:(fun raw ->
               let b = Bytes.of_string raw in
               let i = String.length raw / 2 in
               Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff));
               Bytes.to_string b)));
    prop ~count:40 "eval_instrumented answers exactly as eval"
      QCheck2.Gen.(pair gen_pair gen_query)
      (fun ((arena, _), q) ->
        Server.eval_instrumented arena ~epoch:0 q = Server.eval arena q);
    Alcotest.test_case "handle Telemetry scrapes a consistent snapshot"
      `Quick (fun () ->
        with_telemetry (fun () ->
            let config =
              {
                Server.default_config with
                base_points = 500;
                churn_ops = 100;
                jobs = Some 2;
              }
            in
            let t = Server.create config in
            Fun.protect
              ~finally:(fun () -> Server.shutdown t)
              (fun () ->
                let queries =
                  Array.init 200 (fun i ->
                      Wire.Knn (1 + (i mod 8), Point.make 0.3 0.7))
                in
                ignore (Server.run_queries t queries);
                match Server.handle t Wire.Telemetry with
                | Wire.Telemetry_info info, true ->
                  check_int "epoch advanced by the churn batch" 1
                    info.Wire.epoch;
                  check_int "batches" 1 info.Wire.batches;
                  check_bool "size" true (info.Wire.size > 0);
                  (match Metrics.validate_prometheus info.Wire.prometheus with
                  | Ok n -> check_bool "prometheus samples" true (n > 0)
                  | Error m -> Alcotest.failf "bad prometheus: %s" m);
                  (match Popan_obs.Obs_json.parse info.Wire.metrics_json with
                  | Ok j ->
                    (match Metrics.validate_json j with
                    | Ok n -> check_bool "instruments" true (n > 0)
                    | Error m -> Alcotest.failf "bad metrics json: %s" m)
                  | Error m -> Alcotest.failf "unparseable metrics json: %s" m);
                  let sketch_count name =
                    match
                      Array.find_opt
                        (fun (n, _) -> n = name)
                        info.Wire.sketches
                    with
                    | None -> Alcotest.failf "sketch %s missing" name
                    | Some (_, snap) -> (
                      match Sketch.of_snapshot snap with
                      | Ok s -> Sketch.count s
                      | Error m -> Alcotest.failf "sketch %s invalid: %s" name m)
                  in
                  check_int "one latency record per query" 200
                    (sketch_count "serve.latency.knn");
                  check_int "one visited record per query" 200
                    (sketch_count "serve.visited.knn");
                  check_bool "publish event scraped" true
                    (Array.exists
                       (fun l -> contains l "serve.epoch.publish")
                       info.Wire.events);
                  check_int "one flight record per query" 200
                    (Array.length info.Wire.flight);
                  Array.iter
                    (fun e ->
                      check_int "flight kind is knn" 2 e.Flight.kind;
                      check_int "flight epoch is the pinned epoch" 0
                        e.Flight.epoch;
                      check_bool "flight visited positive" true
                        (e.Flight.visited > 0))
                    info.Wire.flight
                | _ -> Alcotest.fail "bad telemetry response")));
    Alcotest.test_case "only the instrumented path records a query's facts"
      `Quick (fun () ->
        (* [eval] and [eval_instrumented] are one dispatch: both admit
           each query once, but only the timed one feeds the sketches,
           the flight ring and [serve.pruned.subtrees] — even with the
           registry on. A 90% box prunes on containment. *)
        let arena = Pr_arena.of_points_bulk ~capacity:4 (uniform_points 5 4000) in
        let b = Box.make ~xmin:0.02 ~ymin:0.02 ~xmax:0.97 ~ymax:0.97 in
        let queries = [| Wire.Count b; Wire.Range b |] in
        let value name = Metrics.counter_value (Metrics.counter name) in
        let sketch_count name =
          match
            List.find_opt
              (fun (n, _) -> n = name)
              (Metrics.sketch_snapshots ~prefix:"serve." ())
          with
          | Some (_, snap) -> (
            match Sketch.of_snapshot snap with Ok sk -> Sketch.count sk | Error _ -> -1)
          | None -> 0
        in
        with_telemetry (fun () ->
            let plain = Array.map (Server.eval arena) queries in
            check_int "plain: admitted" 2
              (value "serve.queries.count" + value "serve.queries.range");
            check_int "plain: no pruning record" 0 (value "serve.pruned.subtrees");
            check_int "plain: no visited record" 0 (sketch_count "serve.visited.count");
            check_int "plain: no flight record" 0 (List.length (Flight.recent ()));
            let timed = Array.map (Server.eval_instrumented arena ~epoch:0) queries in
            check_bool "same answers" true (plain = timed);
            check_int "timed: admitted" 4
              (value "serve.queries.count" + value "serve.queries.range");
            check_bool "timed: pruning recorded" true
              (value "serve.pruned.subtrees" > 0);
            check_int "timed: visited recorded" 1 (sketch_count "serve.visited.count");
            check_int "timed: flight records" 2 (List.length (Flight.recent ()))));
  ]

(* Publication: replay into a held snapshot, the server against an
   independent replica, the writer domain's lifecycle, and what a
   publish copies and replays. *)

let apply_event arena = function
  | Workload.Churn.Insert p -> Pr_arena.insert arena p
  | Workload.Churn.Delete p -> ignore (Pr_arena.delete arena p : bool)
  | Workload.Churn.Update (p, q) -> ignore (Pr_arena.update arena p q : bool)

(* A replay scenario: a writer's arena built one of two ways — bulk, or
   grown by [of_points] — over one of four regimes — the unit square,
   tight clusters in it, duplicate-heavy clusters under max_depth 42
   (splits down to the 42-bit grid, over-full leaves there), or
   clusters inside one cell of the 21-bit grid but apart on the 42-bit
   one (splits on the fine ordinates that end above depth 42) — driven
   by random slices of inserts, deletes (merges), moves and deletes of
   points that may be absent. Up to three snapshots are taken at random
   slices, and each catches up now and then by replaying, in order,
   every slice it missed. A [big] case holds more than ten thousand
   points and runs slices of up to thousands of operations, so the
   columns and node tables grow and merges cascade between catch-ups. *)
let gen_replay_case =
  QCheck2.Gen.(
    let* seed = int_range 1 1_000_000 in
    let* bulk = bool in
    let* regime = int_range 0 3 in
    let* copies = int_range 1 3 in
    let* slices = int_range 6 18 in
    let* big = map (fun k -> k = 0) (int_range 0 11) in
    return (seed, bulk, regime, copies, slices, big))

let print_replay_case (seed, bulk, regime, copies, slices, big) =
  Printf.sprintf "seed=%d bulk=%b regime=%d copies=%d slices=%d big=%b" seed
    bulk regime copies slices big

let replay_case (seed, bulk, regime, copies, slices, big) =
  let rng = Xoshiro.of_int_seed seed in
  let cluster = [| Point.make 0.3 0.7; Point.make 0.8125 0.0625 |] in
  let fresh () =
    match regime with
    | 0 -> Point.make (Xoshiro.float rng) (Xoshiro.float rng)
    | 1 ->
      (* Two tight clusters, 0.002 on a side. *)
      let c = cluster.(Xoshiro.int rng 2) in
      Point.make
        (c.Point.x +. (0.002 *. Xoshiro.float rng))
        (c.Point.y +. (0.002 *. Xoshiro.float rng))
    | 2 ->
      (* Same 42-bit cell, distinct below it, with exact repeats. *)
      let c = cluster.(Xoshiro.int rng 2) in
      let k = float_of_int (Xoshiro.int rng 6) in
      Point.make (c.Point.x +. ldexp k (-50)) (c.Point.y +. ldexp k (-49))
    | _ ->
      (* Same 21-bit cell, spread over 2^12 fine cells of it. *)
      let c = cluster.(Xoshiro.int rng 2) in
      Point.make
        (c.Point.x +. ldexp (float_of_int (Xoshiro.int rng 4096)) (-33))
        (c.Point.y +. ldexp (float_of_int (Xoshiro.int rng 4096)) (-33))
  in
  let max_depth = if regime >= 2 then Some 42 else None in
  let capacity = 1 + Xoshiro.int rng 4 in
  let base =
    List.init
      (if big then 12_000 + Xoshiro.int rng 12_000 else Xoshiro.int rng 1500)
      (fun _ -> fresh ())
  in
  let live =
    if bulk then Pr_arena.of_points_bulk ?max_depth ~capacity base
    else Pr_arena.of_points ?max_depth ~capacity base
  in
  (* The live population, a growable array: [!size] entries of [!pop]. *)
  let pop = ref (Array.of_list base) and size = ref (List.length base) in
  let push p =
    if !size = Array.length !pop then
      pop := Array.append !pop (Array.make (max 16 !size) p);
    !pop.(!size) <- p;
    incr size
  in
  let remove i =
    !pop.(i) <- !pop.(!size - 1);
    decr size
  in
  (* Every slice's operations, as the writer applied them. *)
  let history = Array.make (slices + 1) [||] in
  (* A held snapshot and the last slice it has seen. *)
  let held = Array.make copies None in
  let problems = ref [] in
  let catch_up slice (copy, seen) =
    for s = seen + 1 to slice do
      Array.iter (apply_event copy) history.(s)
    done;
    let queries =
      Array.concat
        (List.init 4 (fun i ->
             let p = fresh () in
             let w = ldexp 1.0 (-(4 + Xoshiro.int rng 40)) in
             let b =
               Box.make ~xmin:(p.Point.x -. w) ~ymin:(p.Point.y -. w)
                 ~xmax:(p.Point.x +. w) ~ymax:(p.Point.y +. w)
             in
             [| Wire.Range b; Wire.Count b; Wire.Knn (1 + i, p);
                Wire.Nearest p; Wire.Cell p |]))
    in
    (* The audit runs only on a copy equal to the writer: a stale chain
       column can be cyclic, and the audit walks chains. *)
    let diff = Pr_arena.diff_state live copy in
    List.iter
      (fun m -> problems := Printf.sprintf "slice %d: %s" slice m :: !problems)
      (if diff <> [] then diff else Pr_arena.check_invariants copy);
    if
      diff = []
      && answers_bytes (Array.map (Server.eval copy) queries)
         <> answers_bytes (Array.map (Server.eval live) queries)
    then
      problems := Printf.sprintf "slice %d: answers differ" slice :: !problems;
    if Pr_arena.shares_columns live copy then
      problems := "a copy shares a column with the writer" :: !problems;
    (copy, slice)
  in
  for slice = 1 to slices do
    (* Insert-heavy early slices grow the columns and node tables past
       what the snapshots were sized for; later ones delete more. *)
    let insert_share = if slice <= slices / 2 then 0.7 else 0.35 in
    let ops =
      if big && Xoshiro.bool rng then 200 + Xoshiro.int rng 2800
      else 1 + Xoshiro.int rng 30
    in
    let events = ref [] in
    let record e =
      apply_event live e;
      events := e :: !events
    in
    for _ = 1 to ops do
      let u = Xoshiro.float rng in
      let n = !size in
      if n = 0 || u < insert_share then begin
        let p = fresh () in
        record (Workload.Churn.Insert p);
        push p
      end
      else if u < insert_share +. 0.3 then begin
        let i = Xoshiro.int rng n in
        record (Workload.Churn.Delete !pop.(i));
        remove i
      end
      else if u < 0.95 then begin
        let i = Xoshiro.int rng n in
        let q = fresh () in
        record (Workload.Churn.Update (!pop.(i), q));
        !pop.(i) <- q
      end
      else begin
        (* Often absent; in the duplicate regime often not. *)
        let p = fresh () in
        let present = Pr_arena.mem live p in
        record (Workload.Churn.Delete p);
        if present then
          match
            Array.find_index (fun (q : Point.t) -> Point.equal q p)
              (Array.sub !pop 0 !size)
          with
          | Some i -> remove i
          | None -> problems := "deleted an untracked point" :: !problems
      end
    done;
    history.(slice) <- Array.of_list (List.rev !events);
    if Pr_arena.size live <> !size then
      problems :=
        Printf.sprintf "slice %d: the writer holds %d points, the population %d"
          slice (Pr_arena.size live) !size
        :: !problems;
    let k = Xoshiro.int rng copies in
    held.(k) <-
      Some
        (match held.(k) with
        | None -> (Pr_arena.snapshot live, slice)
        | Some h -> catch_up slice h)
  done;
  Array.iter (Option.iter (fun h -> ignore (catch_up slices h))) held;
  match !problems with
  | [] -> true
  | ps -> QCheck2.Test.fail_report (String.concat "\n" (List.rev ps))

(* The server's population and churn stream, rebuilt from the config
   as [Server.create] builds them — the same Z-ordered build, so the
   two agree slot for slot — on an arena the test owns. *)
let replica_of (config : Server.config) =
  let spec =
    Workload.Churn.make ~points:(max 1 config.base_points) ~trials:1
      ~seed:config.seed ~ops:(max 1 config.churn_ops)
      ~insert_fraction:config.insert_fraction
      ~update_fraction:config.update_fraction
      ~drift_sigma:config.drift_sigma ()
  in
  let rng = List.hd (Workload.Churn.map_trials spec ~f:(fun _ r -> r)) in
  let state =
    if config.base_points = 0 then
      Workload.Churn.restore ~rng ~live:[||] ~ops_done:0
    else Workload.Churn.start spec ~rng
  in
  let live =
    let xs, ys = Workload.Churn.live_columns state in
    Pr_arena.bulk_zordered ~capacity:config.capacity
      ~n:(Workload.Churn.live_count state) xs ys
  in
  let step () =
    for _ = 1 to config.churn_ops do
      apply_event live (Workload.Churn.step spec state)
    done
  in
  (live, step)

let publish_counter name = Metrics.counter_value (Metrics.counter name)

(* Unique domain ids rise by one per spawn: a probe domain spawned on
   either side of some code tells whether that code spawned any. *)
let next_domain_id () = (Domain.get_id (Domain.spawn ignore) :> int)

let publish_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:300
         ~name:"a snapshot replaying what it missed equals the writer"
         ~print:print_replay_case gen_replay_case replay_case);
    Alcotest.test_case "a snapshot keeps its source's column capacity" `Quick
      (fun () ->
        let live = Pr_arena.of_points_bulk ~capacity:4 (uniform_points 21 64) in
        List.iter (Pr_arena.insert live) (uniform_points 22 200);
        let copy = Pr_arena.snapshot live in
        check_int "copy bytes" (Pr_arena.copy_bytes live)
          ((24 * Pr_arena.slot_high_water live)
          + (24 * (Pr_arena.leaf_count live + Pr_arena.internal_count live)));
        (* 264 points in columns grown by doubling to 512 slots. The copy
           has as many, so the same inserts grow both at the same point
           — here the 249th — and allocate the same words throughout;
           a copy fitted to its 264 slots would grow at the first. *)
        List.iteri
          (fun i p ->
            let w0 = Gc.minor_words () in
            Pr_arena.insert copy p;
            let w1 = Gc.minor_words () in
            Pr_arena.insert live p;
            let w2 = Gc.minor_words () in
            if w1 -. w0 <> w2 -. w1 then
              Alcotest.failf "insert %d: %.0f minor words into the copy, %.0f \
                              into its source" i (w1 -. w0) (w2 -. w1))
          (uniform_points 23 249);
        Alcotest.(check (list string)) "state-identical after the same inserts"
          [] (Pr_arena.diff_state live copy));
    Alcotest.test_case
      "server matches an independent replica, pins and regrowth included"
      `Quick (fun () ->
        with_telemetry (fun () ->
            let config =
              {
                Server.default_config with
                base_points = 3_000;
                churn_ops = 400;
                insert_fraction = 0.75;
                seed = 4242;
                jobs = Some 2;
              }
            in
            let live, step = replica_of config in
            let rng = Xoshiro.of_int_seed 77 in
            let t = Server.create config in
            Fun.protect
              ~finally:(fun () -> Server.shutdown t)
              (fun () ->
                let pool = Server.pool t in
                let counters () =
                  ( publish_counter "serve.publish.full",
                    publish_counter "serve.publish.bytes",
                    publish_counter "serve.publish.replayed" )
                in
                let full, _, _ = counters () in
                check_int "the boot epoch is a full copy" 1 full;
                let held = ref [] in
                let pinned_queries = ref [||] and pinned_answers = ref "" in
                for batch = 0 to 23 do
                  let queries = mixed_batch rng 60 in
                  let expected = answers_bytes (Array.map (Server.eval live) queries) in
                  step ();
                  (* Hold epoch 8 across the publishes of epochs 9..13,
                     and epoch 9 too: epochs 8 and 9 then never retire,
                     so the publishes of epochs 10 and 11 find no
                     spare. Then hold epochs 14 and 15 and let 14 go
                     first: the publish of epoch 16 finds no spare, and
                     that of epoch 17 a spare two epochs behind. *)
                  if batch = 8 || batch = 9 || batch = 14 || batch = 15 then begin
                    held := Epoch.pin (Server.epochs t) :: !held;
                    if batch = 8 then begin
                      pinned_queries := queries;
                      pinned_answers := expected
                    end
                  end;
                  if batch = 16 then
                    Epoch.unpin (Server.epochs t) (List.nth !held 1);
                  let full0, bytes0, replayed0 = counters () in
                  let epoch, answers = Server.run_queries t queries in
                  check_int "answering epoch" batch epoch;
                  check_bool
                    (Printf.sprintf "batch %d answers" batch)
                    true
                    (answers_bytes answers = expected);
                  (* [Server.epochs] joins the slice, so the new epoch
                     and the counters are in. *)
                  let e = Epoch.pin (Server.epochs t) in
                  check_int "published epoch" (batch + 1) (Epoch.id e);
                  Alcotest.(check (list string))
                    (Printf.sprintf "epoch %d holds the replica's state" (batch + 1))
                    [] (Pr_arena.diff_state live (Epoch.arena e));
                  Epoch.unpin (Server.epochs t) e;
                  Alcotest.(check (list string)) "epoch invariants" []
                    (Epoch.check_invariants (Server.epochs t));
                  let full, bytes, replayed = counters () in
                  let copied = full - full0 and bytes = bytes - bytes0 in
                  let replayed = replayed - replayed0 in
                  if List.mem batch [ 9; 10; 15; 16 ] then begin
                    check_int
                      (Printf.sprintf "publish %d has no spare one epoch \
                                       behind: a full copy" (batch + 1))
                      1 copied;
                    check_bool "the copy's bytes are counted" true (bytes > 0);
                    check_int "nothing replayed into a copy" 0 replayed
                  end
                  else begin
                    check_int (Printf.sprintf "publish %d copies nothing" (batch + 1))
                      0 bytes;
                    check_int "no full copy" 0 copied;
                    (* The first slice churns the build itself, which
                       already holds epoch 0. *)
                    check_int
                      (Printf.sprintf "publish %d replays one slice" (batch + 1))
                      (if batch = 0 then 0 else config.churn_ops)
                      replayed
                  end;
                  if batch = 12 then begin
                    (* Epoch 8, five publishes on, answers as it did. *)
                    let e8 = List.nth !held 1 in
                    check_int "held epoch" 8 (Epoch.id e8);
                    check_bool "pinned epoch unchanged" true
                      (answers_bytes
                         (Server.run_batch ~epoch:8 pool (Epoch.arena e8)
                            !pinned_queries)
                      = !pinned_answers);
                    List.iter (Epoch.unpin (Server.epochs t)) !held;
                    held := []
                  end;
                  if batch = 16 then begin
                    Epoch.unpin (Server.epochs t) (List.hd !held);
                    held := []
                  end
                done;
                (* Both served arenas grew their columns past the
                   build's reserve, one by churning, one by replay. *)
                check_bool "the population outgrew the build's reserve" true
                  (Pr_arena.slot_high_water live
                  > config.base_points + (config.base_points / 8)))));
    Alcotest.test_case "writer domains are joined: 200 create/run/shutdown cycles"
      `Quick (fun () ->
        Parallel.Pool.with_pool ~jobs:1 (fun pool ->
            let config =
              { Server.default_config with base_points = 200; churn_ops = 32 }
            in
            let queries =
              [| Wire.Count Box.unit; Wire.Nearest (Point.make 0.5 0.5) |]
            in
            for i = 1 to 200 do
              let t = Server.create ~pool config in
              let epoch, _ = Server.run_queries t queries in
              check_int "first batch epoch" 0 epoch;
              if i mod 50 = 0 then
                Alcotest.(check (list string)) "invariants" []
                  (Epoch.check_invariants (Server.epochs t));
              Server.shutdown t
            done;
            (* Never asked for a batch: shutdown still returns. *)
            Server.shutdown (Server.create ~pool config);
            (* A static server spawns no writer. *)
            let before = next_domain_id () in
            let t = Server.create ~pool { config with churn_ops = 0 } in
            ignore (Server.run_queries t queries : int * Wire.answer array);
            Server.shutdown t;
            check_int "no domain spawned for a static server" (before + 1)
              (next_domain_id ());
            let before = next_domain_id () in
            let t = Server.create ~pool config in
            Server.shutdown t;
            check_int "one writer domain for a churning server" (before + 2)
              (next_domain_id ())));
    Alcotest.test_case "a steady-state publish copies nothing" `Quick (fun () ->
        with_telemetry (fun () ->
            Parallel.Pool.with_pool ~jobs:1 (fun pool ->
                let config =
                  {
                    Server.default_config with
                    base_points = 1 lsl 18;
                    churn_ops = 256;
                  }
                in
                let t = Server.create ~pool config in
                Fun.protect
                  ~finally:(fun () -> Server.shutdown t)
                  (fun () ->
                    let boot = publish_counter "serve.publish.bytes" in
                    let e = Epoch.pin (Server.epochs t) in
                    check_int "the boot copy's bytes" boot
                      (Pr_arena.copy_bytes (Epoch.arena e));
                    Epoch.unpin (Server.epochs t) e;
                    let queries = [| Wire.Nearest (Point.make 0.25 0.75) |] in
                    for _ = 1 to 21 do
                      ignore (Server.run_queries t queries : int * Wire.answer array)
                    done;
                    (* [Server.epochs] joins the last slice. *)
                    check_int "21 publishes" 21
                      (Epoch.current_id (Server.epochs t));
                    check_int "no byte copied after boot" boot
                      (publish_counter "serve.publish.bytes");
                    check_int "one full copy, the boot epoch's" 1
                      (publish_counter "serve.publish.full");
                    check_int "every publish but the first replayed a slice"
                      (20 * config.churn_ops)
                      (publish_counter "serve.publish.replayed");
                    let prom = Metrics.to_prometheus () in
                    List.iter
                      (fun name ->
                        check_bool (name ^ " in the exposition") true
                          (contains prom name))
                      [ "popan_serve_publish_bytes"; "popan_serve_publish_full";
                        "popan_serve_publish_replayed" ]))));
    Alcotest.test_case "ops replayed per publish equal the slice at 2^14 and 2^18"
      `Quick (fun () ->
        with_telemetry (fun () ->
            Parallel.Pool.with_pool ~jobs:1 (fun pool ->
                List.iter
                  (fun n ->
                    let config =
                      { Server.default_config with base_points = n; churn_ops = 32 }
                    in
                    let t = Server.create ~pool config in
                    Fun.protect
                      ~finally:(fun () -> Server.shutdown t)
                      (fun () ->
                        for i = 0 to 23 do
                          let r0 = publish_counter "serve.publish.replayed"
                          and b0 = publish_counter "serve.publish.bytes" in
                          ignore
                            (Server.run_queries t [| Wire.Count Box.unit |]
                              : int * Wire.answer array);
                          ignore (Server.epochs t : Epoch.t);
                          check_int
                            (Printf.sprintf "n = %d: publish %d replayed" n (i + 1))
                            (if i = 0 then 0 else config.churn_ops)
                            (publish_counter "serve.publish.replayed" - r0);
                          check_int
                            (Printf.sprintf "n = %d: publish %d copied" n (i + 1))
                            0
                            (publish_counter "serve.publish.bytes" - b0)
                        done))
                  [ 1 lsl 14; 1 lsl 18 ])));
  ]

(* Joining the writer at the next request instead of before the
   response: every observable of the server must be what it was when
   each batch joined its own slice. *)

let stats_of t =
  match Server.handle t Wire.Stats with
  | Wire.Stats_info { epoch; size; batches; live_epochs }, true ->
    (epoch, size, batches, live_epochs)
  | _ -> Alcotest.fail "bad stats response"

let join_tests =
  [
    Alcotest.test_case
      "interleaved Stats and Telemetry see what a joined replica shows"
      `Quick (fun () ->
        with_telemetry (fun () ->
            let config =
              {
                Server.default_config with
                base_points = 2_000;
                churn_ops = 300;
                seed = 31;
                jobs = Some 2;
              }
            in
            let t = Server.create config and replica = Server.create config in
            Fun.protect
              ~finally:(fun () ->
                Server.shutdown t;
                Server.shutdown replica)
              (fun () ->
                let rng = Xoshiro.of_int_seed 5 in
                for batch = 0 to 29 do
                  let queries = mixed_batch rng 40 in
                  let epoch, answers = Server.run_queries t queries in
                  let r_epoch, r_answers = Server.run_queries replica queries in
                  (* The replica joins its slice before anything else. *)
                  ignore (Server.epochs replica : Epoch.t);
                  check_int (Printf.sprintf "batch %d epoch" batch) r_epoch epoch;
                  check_bool
                    (Printf.sprintf "batch %d answers" batch)
                    true
                    (answers_bytes answers = answers_bytes r_answers);
                  match batch mod 3 with
                  | 0 ->
                    let e, size, batches, live = stats_of t in
                    let e', size', batches', live' = stats_of replica in
                    check_int "stats epoch" e' e;
                    check_int "stats epoch is the next one" (batch + 1) e;
                    check_int "stats size" size' size;
                    check_int "stats batches" batches' batches;
                    check_int "stats live epochs" live' live
                  | 1 -> (
                    match
                      (Server.handle t Wire.Telemetry, stats_of replica)
                    with
                    | (Wire.Telemetry_info info, true), (e', size', batches', _)
                      ->
                      check_int "telemetry epoch" e' info.Wire.epoch;
                      check_int "telemetry size" size' info.Wire.size;
                      check_int "telemetry batches" batches' info.Wire.batches
                    | _ -> Alcotest.fail "bad telemetry response")
                  | _ -> ()
                done;
                let waits =
                  match
                    List.assoc_opt "serve.writer.wait"
                      (Metrics.sketch_snapshots ~prefix:"serve." ())
                  with
                  | Some s -> Array.fold_left (fun a (_, n) -> a + n) s.Sketch.zeros s.Sketch.buckets
                  | None -> 0
                in
                (* Thirty slices joined on the replica, and all but
                   the last on [t], whose shutdown joins it. *)
                check_int "one writer wait per joined slice" 59 waits)));
    Alcotest.test_case "Server.epochs right after a batch shows its publish"
      `Quick (fun () ->
        let config =
          { Server.default_config with base_points = 500; churn_ops = 64 }
        in
        let t = Server.create config in
        Fun.protect
          ~finally:(fun () -> Server.shutdown t)
          (fun () ->
            for batch = 0 to 9 do
              let epoch, _ =
                Server.run_queries t [| Wire.Count Box.unit |]
              in
              check_int "answering epoch" batch epoch;
              check_int "published epoch" (batch + 1)
                (Epoch.current_id (Server.epochs t))
            done));
    Alcotest.test_case "shutdown joins the slice in flight" `Quick (fun () ->
        with_telemetry (fun () ->
            let published () =
              Metrics.counter_value (Metrics.counter "serve.epochs.published")
            in
            let config =
              { Server.default_config with base_points = 3_000; churn_ops = 2_000 }
            in
            let t = Server.create config in
            let before = published () in
            for _ = 1 to 3 do
              ignore (Server.run_queries t [| Wire.Count Box.unit |])
            done;
            Server.shutdown t;
            check_int "every slice published before shutdown returned" 3
              (published () - before)));
  ]

(* The served layout. [Server.create] builds its arena with
   [Pr_arena.bulk_zordered], whose slots run in Z order; everything
   observable must equal the in-place build of the same points in the
   same order: frozen tree bytes, [points] order, every answer, and
   the same again after identical churn. Five regimes: uniform points,
   tight clusters (half of them under a max_depth of 0 to 4, so leaves
   form at or above the build's four grouped levels), duplicate-heavy
   clusters under max_depth 42 (one cluster spread below the 21-bit
   grid, one below the 42-bit grid, with exact repeats), an
   mmap-backed build over all four shapes, and nested clusters. Those
   put at least [step_min] points in a depth-4 cell, in a depth-8 cell
   inside it and in a depth-16 cell inside that, so the bulk kernel's
   four-level steps run at depths 4 and 8 and from 15, and the regime
   asserts the first two. Their max_depth stops a walk inside a step
   (5-7), at the end of the step at 8 (12), at the end of the first
   key window (15), or lets the steps nest down past the window
   reloads at 15 and 30 (17-42). In the mmap-backed and the nested
   regimes the in-place build must also equal the in-place build with
   the other backing entry for entry ([Pr_arena.diff_state]). Every
   bulk build shares the kernel, so nested clusters also match the
   incremental reference tree, which takes no step. *)

(* The bulk kernel's four-level step threshold ([Pr_arena]'s
   [step_min]). *)
let step_min = 1024

let zorder_point rng regime =
  match regime with
  | 1 ->
    let c = Xoshiro.int rng 3 in
    let cx = 0.2 +. (0.3 *. float_of_int c) in
    Point.make
      (cx +. (0.002 *. Xoshiro.float rng))
      (cx +. (0.002 *. Xoshiro.float rng))
  | 2 -> (
    match Xoshiro.int rng 3 with
    | 0 ->
      (* Same 21-bit cell, apart on the 42-bit grid. *)
      Point.make
        (0.3 +. ldexp (float_of_int (Xoshiro.int rng 4096)) (-33))
        (0.7 +. ldexp (float_of_int (Xoshiro.int rng 4096)) (-33))
    | 1 ->
      (* Same 42-bit cell, apart below it, with exact repeats. *)
      let k = float_of_int (Xoshiro.int rng 6) in
      Point.make (0.8125 +. ldexp k (-50)) (0.0625 +. ldexp k (-49))
    | _ -> Point.make (Xoshiro.float rng) (Xoshiro.float rng))
  | 4 -> (
    (* Nested clusters: the depth-4 cell at (1/4, 1/2) holds 80% of the
       points, the depth-8 cell at its corner 70% and the depth-16 cell
       at that one's corner 50%, where a fifth of all the points are
       copies of eight points. *)
    let at scale = 0.25 +. ldexp (Xoshiro.float rng) (-scale) in
    match Xoshiro.int rng 10 with
    | 0 | 1 -> Point.make (Xoshiro.float rng) (Xoshiro.float rng)
    | 2 -> Point.make (at 4) (0.25 +. at 4)
    | 3 | 4 -> Point.make (at 8) (0.25 +. at 8)
    | 5 | 6 | 7 -> Point.make (at 16) (0.25 +. at 16)
    | _ ->
      let k = float_of_int (Xoshiro.int rng 8) in
      Point.make (0.25 +. ldexp k (-20)) (0.5 +. ldexp k (-21)))
  | _ -> Point.make (Xoshiro.float rng) (Xoshiro.float rng)

(* The most points any cell at [depth] holds. *)
let fullest_cell (pts : Point.t array) depth =
  let cells = Hashtbl.create 64 and scale = ldexp 1.0 depth in
  Array.fold_left
    (fun best (p : Point.t) ->
      let cell =
        (int_of_float (p.Point.x *. scale), int_of_float (p.Point.y *. scale))
      in
      let c = 1 + Option.value (Hashtbl.find_opt cells cell) ~default:0 in
      Hashtbl.replace cells cell c;
      max best c)
    0 pts

let columns_of (pts : Point.t array) =
  let n = Array.length pts in
  let col () = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout (max 1 n) in
  let xs = col () and ys = col () in
  Array.iteri
    (fun i (p : Point.t) ->
      xs.{i} <- p.Point.x;
      ys.{i} <- p.Point.y)
    pts;
  (xs, ys)

let segment_dir () =
  Filename.concat (Filename.get_temp_dir_name ()) "popan-test-zorder"

let zorder_case (seed, regime) =
  let rng = Xoshiro.of_int_seed seed in
  let point () =
    zorder_point rng
      (if regime = 3 then [| 0; 1; 2; 4 |].(Xoshiro.int rng 4) else regime)
  in
  let n =
    match regime with
    | 3 -> Xoshiro.int rng 3000
    | 4 -> 3000 + Xoshiro.int rng 1500
    | _ -> Xoshiro.int rng 1500
  in
  let pts = Array.init n (fun _ -> point ()) in
  let capacity = 1 + Xoshiro.int rng 8 in
  let max_depth =
    if regime = 4 then
      let d = Xoshiro.int rng 31 in
      Some
        (if d < 3 then 5 + d
         else if d = 3 then 12
         else if d = 4 then 15
         else 12 + d)
    else if regime >= 2 then Some 42
    else if regime = 1 then
      (* Half the clustered builds stop at depth 0..4, at or above the
         bulk build's grouped levels. *)
      let d = Xoshiro.int rng 10 in
      if d <= 4 then Some d else None
    else None
  in
  let backing =
    if regime = 3 then Some (Pr_arena.Mmap { dir = segment_dir () }) else None
  in
  let xs, ys = columns_of pts in
  let fill a b =
    for i = 0 to n - 1 do
      a.{i} <- xs.{i};
      b.{i} <- ys.{i}
    done
  in
  let inplace = Pr_arena.bulk_of_columns ?max_depth ?backing ~capacity ~n fill in
  let z = Pr_arena.bulk_zordered ?max_depth ?backing ~capacity ~n xs ys in
  let problems = ref [] in
  let expect what ok = if not ok then problems := what :: !problems in
  if regime >= 3 then begin
    let other =
      Pr_arena.bulk_of_columns ?max_depth
        ?backing:
          (if regime = 3 then None
           else Some (Pr_arena.Mmap { dir = segment_dir () }))
        ~capacity ~n fill
    in
    expect "one build is mmap-backed"
      (Pr_arena.backing inplace <> Pr_arena.backing other);
    expect "heap build = mmap-backed build, entry for entry"
      (Pr_arena.diff_state inplace other = []);
    Pr_arena.release other
  end;
  if regime = 4 then begin
    expect "a depth-4 cell holds step_min points" (fullest_cell pts 4 >= step_min);
    expect "a depth-8 cell holds step_min points" (fullest_cell pts 8 >= step_min);
    expect "in-place build = incremental reference"
      (Pr_quadtree.equal_structure (Pr_arena.freeze inplace)
         (Pr_quadtree.of_points ?max_depth ~capacity (Array.to_list pts)))
  end;
  let queries () =
    Array.init 60 (fun i ->
        let p = point () in
        match i mod 5 with
        | 0 ->
          let w = ldexp 1.0 (-(1 + Xoshiro.int rng 40)) in
          Wire.Range
            (Box.make ~xmin:(p.Point.x -. w) ~ymin:(p.Point.y -. w)
               ~xmax:(p.Point.x +. w) ~ymax:(p.Point.y +. w))
        | 1 ->
          Wire.Count
            (Box.make ~xmin:(p.Point.x *. 0.5) ~ymin:(p.Point.y *. 0.5)
               ~xmax:(p.Point.x +. 0.01) ~ymax:(p.Point.y +. 0.01))
        | 2 -> Wire.Knn (1 + Xoshiro.int rng 12, p)
        | 3 -> Wire.Nearest p
        | _ -> Wire.Cell p)
  in
  let compare_all stage =
    let qs = queries () in
    expect (stage ^ ": frozen bytes") (arena_bytes inplace = arena_bytes z);
    expect (stage ^ ": points order") (Pr_arena.points inplace = Pr_arena.points z);
    expect (stage ^ ": answers")
      (answers_bytes (Array.map (Server.eval inplace) qs)
      = answers_bytes (Array.map (Server.eval z) qs));
    expect (stage ^ ": in-place invariants") (Pr_arena.check_invariants inplace = []);
    expect (stage ^ ": z-ordered invariants") (Pr_arena.check_invariants z = [])
  in
  expect "fresh build is Z-ordered" (Pr_arena.is_zordered z);
  compare_all "fresh";
  let pop = ref (Array.to_list pts) in
  for _ = 1 to 1 + Xoshiro.int rng 300 do
    match (Xoshiro.int rng 3, !pop) with
    | 0, _ | _, [] ->
      let p = point () in
      Pr_arena.insert inplace p;
      Pr_arena.insert z p;
      pop := p :: !pop
    | op, _ ->
      let victim = List.nth !pop (Xoshiro.int rng (List.length !pop)) in
      let rest = List.filter (fun q -> q != victim) !pop in
      if op = 1 then begin
        let a = Pr_arena.delete inplace victim and b = Pr_arena.delete z victim in
        expect "delete agrees" (a && b);
        pop := rest
      end
      else begin
        let q = point () in
        let a = Pr_arena.update inplace victim q
        and b = Pr_arena.update z victim q in
        expect "update agrees" (a && b);
        pop := q :: rest
      end
  done;
  compare_all "churned";
  Pr_arena.release inplace;
  Pr_arena.release z;
  match !problems with
  | [] -> true
  | ps -> QCheck2.Test.fail_report (String.concat "\n" (List.rev ps))

let static_config =
  {
    Server.default_config with
    base_points = 20_000;
    churn_ops = 0;
    seed = 613;
    jobs = Some 2;
  }

let zorder_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:120
         ~name:"Z-ordered build ≡ in-place build, fresh and churned"
         ~print:(fun (seed, regime) ->
           Printf.sprintf "seed=%d regime=%d" seed regime)
         QCheck2.Gen.(pair (int_range 1 1_000_000) (int_range 0 4))
         zorder_case);
    Alcotest.test_case "served arenas are Z-ordered; input-rank builds are not"
      `Quick (fun () ->
        (* Each leaf's chain is head, head+1, ..., head+count-1, the
           runs ascending depth first — for the boot epoch of a static
           and of a churning server alike (the churning one serves a
           copy of its Z-ordered live arena). *)
        let served config =
          let t = Server.create config in
          Fun.protect
            ~finally:(fun () -> Server.shutdown t)
            (fun () ->
              let e = Epoch.pin (Server.epochs t) in
              let z = Pr_arena.is_zordered (Epoch.arena e) in
              Epoch.unpin (Server.epochs t) e;
              z)
        in
        check_bool "static epoch 0" true (served static_config);
        check_bool "churning epoch 0" true
          (served { static_config with churn_ops = 64 });
        check_bool "an in-place build numbers slots by input rank" false
          (Pr_arena.is_zordered
             (Pr_arena.of_points_bulk ~capacity:8 (uniform_points 3 5_000))));
    Alcotest.test_case "a static server serves its built arena, copying nothing"
      `Quick (fun () ->
        with_telemetry (fun () ->
            let live, _ = replica_of static_config in
            let t = Server.create static_config in
            Fun.protect
              ~finally:(fun () -> Server.shutdown t)
              (fun () ->
                let rng = Xoshiro.of_int_seed 19 in
                for batch = 0 to 5 do
                  let queries = mixed_batch rng 200 in
                  let epoch, answers = Server.run_queries t queries in
                  check_int "always epoch 0" 0 epoch;
                  check_bool
                    (Printf.sprintf "batch %d answers as a churn-free replica" batch)
                    true
                    (answers_bytes answers
                    = answers_bytes (Array.map (Server.eval live) queries));
                  Alcotest.(check (list string)) "epoch invariants" []
                    (Epoch.check_invariants (Server.epochs t))
                done;
                check_int "no publish bytes" 0
                  (publish_counter "serve.publish.bytes");
                check_int "no full copy" 0 (publish_counter "serve.publish.full"))));
    Alcotest.test_case "an mmap-backed static server removes its segments"
      `Quick (fun () ->
        let dir =
          Filename.concat (segment_dir ())
            (Printf.sprintf "static-%d" (Unix.getpid ()))
        in
        let t =
          Server.create
            { static_config with base_points = 5_000; mmap_dir = Some dir }
        in
        let e = Epoch.pin (Server.epochs t) in
        check_bool "mapped" true
          (Pr_arena.backing (Epoch.arena e) <> Pr_arena.Heap);
        Epoch.unpin (Server.epochs t) e;
        let _, answers = Server.run_queries t [| Wire.Count Box.unit |] in
        check_bool "counts every point" true (answers = [| Wire.Count_of 5_000 |]);
        Server.shutdown t;
        Alcotest.(check (array string)) "no segment directory left" [||]
          (Sys.readdir dir);
        Unix.rmdir dir);
    Alcotest.test_case "an mmap-backed churning server removes its segments"
      `Quick (fun () ->
        let dir =
          Filename.concat (segment_dir ())
            (Printf.sprintf "churning-%d" (Unix.getpid ()))
        in
        let t =
          Server.create
            {
              static_config with
              base_points = 5_000;
              churn_ops = 64;
              mmap_dir = Some dir;
            }
        in
        (* Epoch 0 is a heap copy; the first slice churns the mapped
           build into epoch 1, and from then on the two alternate. *)
        for batch = 0 to 3 do
          let epoch, _ = Server.run_queries t [| Wire.Count Box.unit |] in
          check_int "answering epoch" batch epoch
        done;
        let e = Epoch.pin (Server.epochs t) in
        check_int "four publishes" 4 (Epoch.id e);
        check_bool "epoch 4 is the heap copy" true
          (Pr_arena.backing (Epoch.arena e) = Pr_arena.Heap);
        Epoch.unpin (Server.epochs t) e;
        check_int "one segment directory, the build's" 1
          (Array.length (Sys.readdir dir));
        Server.shutdown t;
        Alcotest.(check (array string)) "no segment directory left" [||]
          (Sys.readdir dir);
        Unix.rmdir dir);
  ]

(* Non-finite query input: one rule for every kind. A NaN or infinite
   coordinate answers [Rejected] naming its field, whichever evaluator
   runs, wherever the query sits in its batch, and the finite queries
   around it answer as the kernels do. *)
let reference_answer arena (q : Wire.query) =
  match q with
  | Wire.Range b -> Wire.Points (Array.of_list (Pr_arena.query_box arena b))
  | Wire.Count b -> Wire.Count_of (Pr_arena.count_in_box arena b)
  | Wire.Knn (k, p) -> Wire.Points (Array.of_list (Pr_arena.k_nearest arena k p))
  | Wire.Nearest p ->
    Wire.Points (Option.to_list (Pr_arena.nearest arena p) |> Array.of_list)
  | Wire.Cell p ->
    let depth, box, pts = Pr_arena.cell_at arena p in
    Wire.Cell_info (depth, box, Array.of_list pts)

let hostile_floats = [| Float.nan; Float.infinity; Float.neg_infinity |]

(* Hostile but well-formed: [Wire] decodes every one of these as it
   was sent. Without [~nan_boxes] each box keeps xmin < xmax and
   ymin < ymax, and only an infinity is hostile; with it a box may also
   hold NaN, which [Box.make] would refuse. *)
let gen_hostile ~nan_boxes =
  QCheck2.Gen.(
    let* v = oneofa hostile_floats in
    let* field = int_range 0 3 in
    let* kind = int_range 0 4 in
    let* p = gen_point in
    let* b = gen_box in
    let point =
      if field land 1 = 0 then { p with Point.x = v } else { p with Point.y = v }
    in
    let box =
      match field with
      | 0 -> { b with Box.xmin = Float.neg_infinity }
      | 1 -> { b with Box.ymin = Float.neg_infinity }
      | 2 -> { b with Box.xmax = Float.infinity }
      | _ -> { b with Box.ymax = Float.infinity }
    in
    let box =
      if nan_boxes && Float.is_nan v then { box with Box.xmax = Float.nan }
      else box
    in
    return
      (match kind with
      | 0 -> Wire.Range box
      | 1 -> Wire.Count box
      | 2 -> Wire.Knn (1 + field, point)
      | 3 -> Wire.Nearest point
      | _ -> Wire.Cell point))

(* Boxes whose extent is empty on an axis — finite, but refused by
   [Box.make] — each with the reason's field. *)
let degenerate_boxes =
  let b = Box.make ~xmin:0.2 ~ymin:0.3 ~xmax:0.6 ~ymax:0.7 in
  [ ({ b with Box.xmax = b.Box.xmin }, "xmin >= xmax");
    ({ b with Box.xmin = 0.9 }, "xmin >= xmax");
    ({ b with Box.ymax = b.Box.ymin }, "ymin >= ymax");
    ({ b with Box.ymin = 0.8 }, "ymin >= ymax") ]

let hostile_arena = lazy (churned_arena ~seed:29 ~base:2_000 ~ops:1_000)

let is_rejected = function Wire.Rejected _ -> true | _ -> false

let hostile_tests =
  [
    prop ~count:150 "non-finite queries are rejected, the rest answered"
      QCheck2.Gen.(
        pair
          (array_size (int_range 0 30) gen_query)
          (array_size (int_range 1 10)
             (pair (gen_hostile ~nan_boxes:true) (int_range 0 1000))))
      (fun (finite, hostile) ->
        let arena = Lazy.force hostile_arena in
        (* Splice each hostile query in at a random position. *)
        let batch = ref (Array.map (fun q -> (q, false)) finite) in
        Array.iter
          (fun (q, at) ->
            let at = at mod (Array.length !batch + 1) in
            batch :=
              Array.concat
                [ Array.sub !batch 0 at; [| (q, true) |];
                  Array.sub !batch at (Array.length !batch - at) ])
          hostile;
        let queries = Array.map fst !batch in
        let plain = Array.map (Server.eval arena) queries in
        let instrumented =
          with_telemetry (fun () ->
              Array.map (Server.eval_instrumented arena ~epoch:3) queries)
        in
        let batched =
          Parallel.Pool.with_pool ~jobs:2 (fun pool ->
              Server.run_batch pool arena queries)
        in
        Array.length batched = Array.length queries
        && answers_bytes plain = answers_bytes instrumented
        && answers_bytes plain = answers_bytes batched
        && Array.for_all2
             (fun (q, hostile) a ->
               if hostile then is_rejected a
               else
                 match q with
                 | Wire.Knn (k, _) when k < 0 -> is_rejected a
                 | _ -> a = reference_answer arena q)
             !batch plain);
    Alcotest.test_case "each rejection names its field" `Quick (fun () ->
        let arena = Lazy.force hostile_arena in
        let p = Point.make 0.5 Float.nan in
        let b = { (Box.make ~xmin:0.1 ~ymin:0.1 ~xmax:0.2 ~ymax:0.2) with
                  Box.ymin = Float.neg_infinity } in
        List.iter
          (fun (q, field) ->
            match Server.eval arena q with
            | Wire.Rejected m ->
              check_bool (Printf.sprintf "%S names %s" m field) true
                (contains m field)
            | _ -> Alcotest.fail "a non-finite query was answered")
          ([ (Wire.Range b, "ymin"); (Wire.Count b, "ymin");
             (Wire.Knn (3, p), "point y"); (Wire.Nearest p, "point y");
             (Wire.Cell p, "point y") ]
          @ List.concat_map
              (fun (b, field) -> [ (Wire.Range b, field); (Wire.Count b, field) ])
              degenerate_boxes));
    Alcotest.test_case "a served hostile batch, then a normal one" `Quick
      (fun () ->
        let config =
          { Server.default_config with base_points = 3_000; churn_ops = 0 }
        in
        let live, _ = replica_of config in
        (* The first frame puts a hostile query — NaN and infinite
           fields, empty extents — before each of 48 normal ones. *)
        let hostile =
          QCheck2.Gen.generate ~n:40 ~rand:(Random.State.make [| 7 |])
            (gen_hostile ~nan_boxes:true)
          @ List.concat_map
              (fun (b, _) -> [ Wire.Range b; Wire.Count b ])
              degenerate_boxes
        in
        let first =
          Array.of_list
            (List.concat
               (List.map2
                  (fun h q -> [ (h, true); (q, false) ])
                  hostile
                  (Array.to_list (mixed_batch (Xoshiro.of_int_seed 9) 48))))
        in
        let normal = mixed_batch (Xoshiro.of_int_seed 8) 50 in
        let dir = Filename.get_temp_dir_name () in
        let requests = Filename.temp_file ~temp_dir:dir "popan" ".req" in
        let responses = Filename.temp_file ~temp_dir:dir "popan" ".resp" in
        Fun.protect
          ~finally:(fun () ->
            List.iter
              (fun f -> try Sys.remove f with Sys_error _ -> ())
              [ requests; responses ])
          (fun () ->
            let oc = open_out_bin requests in
            List.iter (Wire.write_request oc)
              [ Wire.Batch (Array.map fst first); Wire.Batch normal; Wire.Quit ];
            close_out oc;
            let t = Server.create config in
            let quit =
              Fun.protect
                ~finally:(fun () -> Server.shutdown t)
                (fun () ->
                  let ic = open_in_bin requests
                  and oc = open_out_bin responses in
                  Fun.protect
                    ~finally:(fun () ->
                      close_in ic;
                      close_out oc)
                    (fun () -> Server.serve_channels t ic oc))
            in
            check_bool "the conversation ended with Quit" true quit;
            let ic = open_in_bin responses in
            Fun.protect
              ~finally:(fun () -> close_in ic)
              (fun () ->
                (match Wire.read_response ic with
                | Some (Ok (Wire.Answers { answers; _ })) ->
                  check_int "first frame arity" (Array.length first)
                    (Array.length answers);
                  Array.iteri
                    (fun i (q, hostile) ->
                      if hostile then
                        check_bool (Printf.sprintf "query %d rejected" i) true
                          (is_rejected answers.(i))
                      else
                        check_bool (Printf.sprintf "query %d answered" i) true
                          (answers_bytes [| answers.(i) |]
                          = answers_bytes [| Server.eval live q |]))
                    first
                | _ -> Alcotest.fail "no answers to the hostile frame");
                (match Wire.read_response ic with
                | Some (Ok (Wire.Answers { answers; _ })) ->
                  check_bool "the normal batch answers as the replica" true
                    (answers_bytes answers
                    = answers_bytes (Array.map (Server.eval live) normal))
                | _ -> Alcotest.fail "no answers to the normal batch");
                match Wire.read_response ic with
                | Some (Ok Wire.Bye) -> ()
                | _ -> Alcotest.fail "no Bye")));
  ]

(* Arenas that reach deeper than the arenas of [gen_pair]. Regime 0
   is uniform over the unit square; regimes 1 and 2 are the
   [zorder_point] shapes under max_depth 42: tight clusters, and
   duplicate-heavy clusters that split down to the 42-bit grid and
   leave over-full leaves there. Each case is one arena — built in
   bulk, incrementally, or in bulk and then churned — with capacity
   1–8, its frozen tree, and twenty queries aimed at its points: boxes
   from half the space wide down to below the fine grid, probes, and
   k. *)
let kernel_case (seed, regime) =
  let rng = Xoshiro.of_int_seed seed in
  let max_depth = if regime >= 1 then Some 42 else None in
  let point () = zorder_point rng regime in
  let capacity = 1 + Xoshiro.int rng 8 in
  let pts = List.init (200 + Xoshiro.int rng 800) (fun _ -> point ()) in
  let arena =
    match Xoshiro.int rng 3 with
    | 0 -> Pr_arena.of_points_bulk ?max_depth ~capacity pts
    | 1 -> Pr_arena.of_points ?max_depth ~capacity pts
    | _ ->
      let a = Pr_arena.of_points_bulk ?max_depth ~capacity pts in
      List.iteri
        (fun i p ->
          if i mod 3 = 0 then ignore (Pr_arena.delete a p : bool)
          else if i mod 3 = 1 then Pr_arena.insert a (point ()))
        pts;
      a
  in
  let queries =
    List.init 20 (fun _ ->
        let p = point () in
        let w = ldexp 1.0 (-(1 + Xoshiro.int rng 50)) in
        let b =
          Box.make ~xmin:(p.Point.x -. w) ~ymin:(p.Point.y -. w)
            ~xmax:(p.Point.x +. (w *. Xoshiro.float rng) +. w)
            ~ymax:(p.Point.y +. w)
        in
        (b, point (), 1 + Xoshiro.int rng 16))
  in
  (arena, Pr_arena.freeze arena, queries)

let print_kernel_case (seed, regime) = Printf.sprintf "seed=%d regime=%d" seed regime

(* The fixed arena of the pinned totals: 2^14 uniform points at capacity
   8, built in place and Z-ordered (the same tree, two slot layouts),
   and 512 mixed boxes, probes and k. *)
let pinned_arenas () =
  let n = 1 lsl 14 in
  let xs, ys =
    columns_of (Array.of_list (uniform_points 1987 n))
  in
  let inplace =
    Pr_arena.bulk_of_columns ~capacity:8 ~n (fun a b ->
        for i = 0 to n - 1 do
          a.{i} <- xs.{i};
          b.{i} <- ys.{i}
        done)
  in
  [ ("in place", inplace); ("Z-ordered", Pr_arena.bulk_zordered ~capacity:8 ~n xs ys) ]

let pinned_queries () =
  let rng = Xoshiro.of_int_seed 1414 in
  Array.init 512 (fun i ->
      let p = Point.make (Xoshiro.float rng) (Xoshiro.float rng) in
      let w = 0.001 +. (0.3 *. Xoshiro.float rng) in
      let h = 0.001 +. (0.3 *. Xoshiro.float rng) in
      let x = (1.0 -. w) *. Xoshiro.float rng in
      let y = (1.0 -. h) *. Xoshiro.float rng in
      (Box.make ~xmin:x ~ymin:y ~xmax:(x +. w) ~ymax:(y +. h), p, 1 + (i mod 16)))

let deep_kernel_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:80 ~print:print_kernel_case
         ~name:"deep clusters: every kernel ≡ Pr_quadtree"
         QCheck2.Gen.(pair (int_range 1 1_000_000) (int_range 1 2))
         (fun case ->
           let arena, tree, queries = kernel_case case in
           (* The deep regime must really split down to the fine grid. *)
           (snd case = 1 || Pr_arena.height arena = 42)
           && List.for_all
                (fun (b, p, k) ->
                  let knn = Pr_arena.k_nearest arena k p in
                  Pr_arena.query_box arena b = Pr_quadtree.query_box tree b
                  && Pr_arena.count_in_box arena b = Pr_quadtree.count_in_box tree b
                  && knn = Pr_quadtree.k_nearest tree k p
                  && Pr_arena.cell_at arena p = Pr_quadtree.leaf_at tree p
                  && List.for_all
                       (fun q -> Pr_arena.mem arena q = Pr_quadtree.mem tree q)
                       (p :: knn)
                  &&
                  match (Pr_arena.nearest arena p, Pr_quadtree.nearest tree p) with
                  | None, None -> true
                  | Some a, Some t ->
                    Point.distance_sq p a = Point.distance_sq p t
                    && Pr_quadtree.mem tree a
                  | _ -> false)
                queries));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:60 ~print:print_kernel_case
         ~name:"each plain entry point is fst of its _visited twin"
         QCheck2.Gen.(pair (int_range 1 1_000_000) (int_range 0 2))
         (fun case ->
           let a, _, queries = kernel_case case in
           List.for_all
             (fun (b, p, k) ->
               Pr_arena.count_in_box a b = fst (Pr_arena.count_in_box_visited a b)
               && Pr_arena.query_box a b = fst (Pr_arena.query_box_visited a b)
               && Pr_arena.nearest a p = fst (Pr_arena.nearest_visited a p)
               && Pr_arena.k_nearest a k p = fst (Pr_arena.k_nearest_visited a k p))
             queries));
    Alcotest.test_case "pinned visited totals over a fixed arena" `Quick
      (fun () ->
        (* Totals over 512 queries per kind, computed before the kernels
           were folded into one tallying walk per kind; both layouts of
           the one tree must read them. *)
        let queries = pinned_queries () in
        List.iter
          (fun (layout, a) ->
            let total f = Array.fold_left (fun acc q -> acc + f q) 0 queries in
            let check kind expected f =
              check_int (Printf.sprintf "%s %s" layout kind) expected (total f)
            in
            check "range" 80_868 (fun (b, _, _) -> snd (Pr_arena.query_box_visited a b));
            check "count" 80_868 (fun (b, _, _) -> snd (Pr_arena.count_in_box_visited a b));
            check "nearest" 14_848 (fun (_, p, _) -> snd (Pr_arena.nearest_visited a p));
            check "k-NN" 20_060 (fun (_, p, k) -> snd (Pr_arena.k_nearest_visited a k p));
            check "cell" 3_579 (fun (_, p, _) -> snd (Pr_arena.cell_at_visited a p)))
          (pinned_arenas ()));
  ]

let () =
  Alcotest.run "popan-serve"
    [
      ("neighbors", neighbors_tests);
      ("kernels", kernel_tests @ deep_kernel_tests);
      ("pruning", pruning_tests);
      ("snapshot", snapshot_tests);
      ("epochs", epoch_tests);
      ("wire", wire_tests);
      ("batch", batch_tests);
      ("publish", publish_tests);
      ("server", server_tests);
      ("join", join_tests);
      ("telemetry", telemetry_tests);
      ("zorder", zorder_tests);
      ("hostile", hostile_tests);
    ]
