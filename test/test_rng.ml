(* Tests for the RNG substrate: determinism, stream independence,
   distribution moments and ranges, and the spatial samplers. *)

open Popan_rng
module Point = Popan_geom.Point
module Box = Popan_geom.Box
module Segment = Popan_geom.Segment
module Stats = Popan_numerics.Stats

let check_close tol = Alcotest.(check (float tol))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let sample rng n draw = List.init n (fun _ -> draw rng)

(* Splitmix *)

let splitmix_tests =
  [
    Alcotest.test_case "deterministic per seed" `Quick (fun () ->
        let a = Splitmix.create 42L and b = Splitmix.create 42L in
        for _ = 1 to 100 do
          Alcotest.(check int64) "same" (Splitmix.next a) (Splitmix.next b)
        done);
    Alcotest.test_case "different seeds differ" `Quick (fun () ->
        let a = Splitmix.create 1L and b = Splitmix.create 2L in
        check_bool "differ" true (Splitmix.next a <> Splitmix.next b));
    Alcotest.test_case "known first output of seed 0" `Quick (fun () ->
        (* Reference value from the SplitMix64 reference implementation. *)
        Alcotest.(check int64) "ref" 0xE220A8397B1DCDAFL
          (Splitmix.next (Splitmix.create 0L)));
    Alcotest.test_case "float in unit interval" `Quick (fun () ->
        let sm = Splitmix.create 7L in
        for _ = 1 to 1000 do
          let x = Splitmix.next_float sm in
          if x < 0.0 || x >= 1.0 then Alcotest.fail "out of range"
        done);
    Alcotest.test_case "copy independent" `Quick (fun () ->
        let a = Splitmix.create 3L in
        ignore (Splitmix.next a);
        let b = Splitmix.copy a in
        Alcotest.(check int64) "same next" (Splitmix.next a) (Splitmix.next b));
  ]

(* Xoshiro *)

let xoshiro_tests =
  [
    Alcotest.test_case "deterministic per seed" `Quick (fun () ->
        let a = Xoshiro.of_int_seed 42 and b = Xoshiro.of_int_seed 42 in
        for _ = 1 to 100 do
          Alcotest.(check int64) "same" (Xoshiro.next a) (Xoshiro.next b)
        done);
    Alcotest.test_case "float range" `Quick (fun () ->
        let rng = Xoshiro.of_int_seed 1 in
        for _ = 1 to 10_000 do
          let x = Xoshiro.float rng in
          if x < 0.0 || x >= 1.0 then Alcotest.fail "out of range"
        done);
    Alcotest.test_case "float mean near half" `Quick (fun () ->
        let rng = Xoshiro.of_int_seed 2 in
        let xs = sample rng 20_000 Xoshiro.float in
        check_close 0.01 "mean" 0.5 (Stats.mean xs));
    Alcotest.test_case "int bounds respected" `Quick (fun () ->
        let rng = Xoshiro.of_int_seed 3 in
        for _ = 1 to 10_000 do
          let v = Xoshiro.int rng 7 in
          if v < 0 || v >= 7 then Alcotest.fail "out of range"
        done);
    Alcotest.test_case "int bound one" `Quick (fun () ->
        let rng = Xoshiro.of_int_seed 4 in
        check_int "only zero" 0 (Xoshiro.int rng 1));
    Alcotest.test_case "int rejects nonpositive bound" `Quick (fun () ->
        Alcotest.check_raises "bound" (Invalid_argument "Xoshiro.int: bound <= 0")
          (fun () -> ignore (Xoshiro.int (Xoshiro.of_int_seed 0) 0)));
    Alcotest.test_case "int roughly uniform (chi-square)" `Quick (fun () ->
        let rng = Xoshiro.of_int_seed 5 in
        let buckets = 8 in
        let n = 80_000 in
        let counts = Array.make buckets 0.0 in
        for _ = 1 to n do
          let v = Xoshiro.int rng buckets in
          counts.(v) <- counts.(v) +. 1.0
        done;
        let expected = Array.make buckets (float_of_int n /. float_of_int buckets) in
        (* 7 dof: chi2 < 30 keeps far more than 99.99% of healthy runs. *)
        check_bool "chi2" true (Stats.chi_square ~expected ~observed:counts < 30.0));
    Alcotest.test_case "split streams disagree" `Quick (fun () ->
        let parent = Xoshiro.of_int_seed 6 in
        let c1 = Xoshiro.split parent in
        let c2 = Xoshiro.split parent in
        let xs = sample c1 8 Xoshiro.float in
        let ys = sample c2 8 Xoshiro.float in
        check_bool "differ" true (xs <> ys));
    Alcotest.test_case "jump changes state" `Quick (fun () ->
        let a = Xoshiro.of_int_seed 7 in
        let b = Xoshiro.copy a in
        Xoshiro.jump b;
        check_bool "differ" true (Xoshiro.next a <> Xoshiro.next b));
    Alcotest.test_case "bool balanced" `Quick (fun () ->
        let rng = Xoshiro.of_int_seed 8 in
        let trues = ref 0 in
        for _ = 1 to 10_000 do
          if Xoshiro.bool rng then incr trues
        done;
        check_bool "balance" true (abs (!trues - 5000) < 300));
  ]

(* Stream pins: the first eight outputs of [Xoshiro.next], recorded
   from the record-of-int64 implementation the unboxed state replaced.
   Every golden table, sweep row and served epoch rests on these
   streams, so a representation change must reproduce them exactly. *)

let first8 rng = Array.init 8 (fun _ -> Xoshiro.next rng)

let check_stream label expected rng =
  Alcotest.(check (array int64)) label expected (first8 rng)

let seed0 =
  [| 0x53175D61490B23DFL; 0x61DA6F3DC380D507L; 0x5C0FDF91EC9A7BFCL;
     0x02EEBF8C3BBE5E1AL; 0x7ECA04EBAF4A5EEAL; 0x0543C37757F08D9AL;
     0xDB7490C75AB5026EL; 0xD87343E6464BC959L |]

let seed1 =
  [| 0xCFC5D07F6F03C29BL; 0xBF424132963FE08DL; 0x19A37D5757AAF520L;
     0xBF08119F05CD56D6L; 0x2F47184B86186FA4L; 0x97299FCAE7202345L;
     0xFCA3C79508F41507L; 0x85FEA5C90363F221L |]

let seed1987 =
  [| 0x6FE1884AEF322486L; 0xA66CA2FF7FCA9B19L; 0xA33DBF418107E815L;
     0x624DBB3F78A56138L; 0x8F156FED5CE8CE08L; 0x9BC0301E977B3AE2L;
     0x1692B0CED0658BE4L; 0xDB4A5448D91F2A61L |]

(* Seed 1987 after one split: the parent has jumped 2^128 steps. *)
let seed1987_split_parent =
  [| 0x20DB77E026619E4CL; 0xF67E8D85F165B7F9L; 0x9EAB2762F5CACDAEL;
     0x0D7ACBF7A5CC5D67L; 0xF09C922CE677DCCBL; 0x757E70845F5404BCL;
     0x71349B50476588FBL; 0xB21384760CDE0B6CL |]

let seed1_jumped =
  [| 0xDAFD92F1ADFFC5B9L; 0x89D5ED6828F5BECFL; 0xC81A7B85673E9DACL;
     0xE3ED98A07EF5A746L; 0xE294A7E13E75C33CL; 0xCCF30D2611797724L;
     0x9D4B1FE0948C2378L; 0x04A810F6C7F4ACC6L |]

(* [to_words] of seed 1987: the words a checkpoint frame encodes. *)
let seed1987_words =
  [| 0xEDE44CD25F8647C8L; 0xBF67F51C16FAA348L; 0xB0DB4F55BCBC708EL;
     0x69D530319AF0A957L |]

let pin_tests =
  [
    Alcotest.test_case "first outputs of seeds 0, 1 and 1987" `Quick
      (fun () ->
        check_stream "seed 0" seed0 (Xoshiro.of_int_seed 0);
        check_stream "seed 1" seed1 (Xoshiro.of_int_seed 1);
        check_stream "seed 1987" seed1987 (Xoshiro.of_int_seed 1987));
    Alcotest.test_case "split child and parent, and jump" `Quick (fun () ->
        let parent = Xoshiro.of_int_seed 1987 in
        let child = Xoshiro.split parent in
        check_stream "child continues the parent's old stream" seed1987 child;
        check_stream "parent after split" seed1987_split_parent parent;
        let j = Xoshiro.of_int_seed 1 in
        Xoshiro.jump j;
        check_stream "seed 1 after jump" seed1_jumped j);
    Alcotest.test_case "to_words / of_words / copy round trip" `Quick
      (fun () ->
        let rng = Xoshiro.of_int_seed 1987 in
        Alcotest.(check (array int64)) "state words" seed1987_words
          (Xoshiro.to_words rng);
        let restored = Xoshiro.of_words (Xoshiro.to_words rng) in
        let copied = Xoshiro.copy rng in
        Alcotest.(check (array int64)) "restored words" seed1987_words
          (Xoshiro.to_words restored);
        check_stream "original" seed1987 rng;
        check_stream "restored continues it" seed1987 restored;
        Alcotest.(check (array int64)) "copy unmoved by the original"
          seed1987_words (Xoshiro.to_words copied);
        check_stream "copy continues it" seed1987 copied;
        Alcotest.(check (array int64)) "all three end together"
          (Xoshiro.to_words rng) (Xoshiro.to_words copied);
        Alcotest.(check (array int64)) "restored ends there too"
          (Xoshiro.to_words rng) (Xoshiro.to_words restored));
    Alcotest.test_case "fill_pairs validates n" `Quick (fun () ->
        let col n = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n in
        Alcotest.check_raises "past the end"
          (Invalid_argument "Xoshiro.fill_pairs: n outside the columns")
          (fun () -> Xoshiro.fill_pairs (Xoshiro.of_int_seed 0) (col 4) (col 3) 4));
  ]

(* The column fill against [Sampler.point]: n points through [fill]
   must be the n points [point] draws — coordinates bit for bit — and
   leave the generator in the same state. *)

let models =
  QCheck2.Gen.(
    oneof
      [
        pure Sampler.Uniform;
        map (fun sigma -> Sampler.Gaussian { sigma }) (float_range 0.01 0.5);
        map2
          (fun centers sigma -> Sampler.Clusters { centers; sigma })
          (list_size (int_range 1 4)
             (map2 Point.make (float_range 0.0 0.999) (float_range 0.0 0.999)))
          (float_range 0.005 0.2);
      ])

let fill_case = QCheck2.Gen.(triple (int_range 0 100_000) models (int_range 0 300))

let print_fill_case (seed, model, n) =
  Printf.sprintf "seed=%d model=%s n=%d" seed (Sampler.id model) n

let fill_matches_points fill (seed, model, n) =
  let col () =
    Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout (n + 3)
  in
  let xs = col () and ys = col () in
  let by_fill = Xoshiro.of_int_seed seed in
  let by_point = Xoshiro.of_int_seed seed in
  fill by_fill model xs ys n;
  let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
  let ok = ref true in
  for i = 0 to n - 1 do
    let p = Sampler.point by_point model in
    if not (same xs.{i} p.Point.x && same ys.{i} p.Point.y) then ok := false
  done;
  !ok && Xoshiro.to_words by_fill = Xoshiro.to_words by_point

let fill_property ~name fill =
  QCheck2.Test.make ~count:200 ~name ~print:print_fill_case fill_case
    (fill_matches_points fill)

(* The order trap the fill must not fall into: x drawn before y. *)
let fill_x_first rng model xs ys n =
  match model with
  | Sampler.Uniform -> Xoshiro.fill_pairs rng xs ys n
  | _ -> Sampler.fill rng model xs ys n

let fill_tests =
  [
    QCheck_alcotest.to_alcotest
      (fill_property ~name:"column fill equals n calls of Sampler.point"
         Sampler.fill);
    Alcotest.test_case "the property rejects an x-before-y fill" `Quick
      (fun () ->
        check_bool "fails" false
          (fill_matches_points fill_x_first (7, Sampler.Uniform, 5));
        match
          QCheck2.Test.check_exn
            (fill_property ~name:"x-first fill" fill_x_first)
        with
        | () -> Alcotest.fail "an x-before-y fill passed the property"
        | exception QCheck2.Test.Test_fail _ -> ());
    Alcotest.test_case "fill validates n and columns" `Quick (fun () ->
        let col n = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n in
        let rng = Xoshiro.of_int_seed 0 in
        Alcotest.check_raises "n" (Invalid_argument "Sampler.fill: n < 0")
          (fun () -> Sampler.fill rng Sampler.Uniform (col 1) (col 1) (-1));
        Alcotest.check_raises "short"
          (Invalid_argument "Sampler.fill: column shorter than n") (fun () ->
            Sampler.fill rng Sampler.Uniform (col 4) (col 3) 4));
  ]

(* Dist *)

let dist_tests =
  [
    Alcotest.test_case "uniform range and mean" `Quick (fun () ->
        let rng = Xoshiro.of_int_seed 10 in
        let xs = sample rng 20_000 (fun r -> Dist.uniform r ~lo:2.0 ~hi:4.0) in
        List.iter (fun x -> if x < 2.0 || x >= 4.0 then Alcotest.fail "range") xs;
        check_close 0.02 "mean" 3.0 (Stats.mean xs));
    Alcotest.test_case "uniform rejects empty interval" `Quick (fun () ->
        Alcotest.check_raises "hi<=lo" (Invalid_argument "Dist.uniform: hi <= lo")
          (fun () ->
            ignore (Dist.uniform (Xoshiro.of_int_seed 0) ~lo:1.0 ~hi:1.0)));
    Alcotest.test_case "gaussian moments" `Quick (fun () ->
        let rng = Xoshiro.of_int_seed 11 in
        let xs =
          sample rng 40_000 (fun r -> Dist.gaussian r ~mean:1.5 ~sigma:2.0)
        in
        check_close 0.05 "mean" 1.5 (Stats.mean xs);
        check_close 0.1 "stddev" 2.0 (Stats.stddev xs));
    Alcotest.test_case "truncated gaussian stays inside" `Quick (fun () ->
        let rng = Xoshiro.of_int_seed 12 in
        for _ = 1 to 5000 do
          let x =
            Dist.truncated_gaussian rng ~mean:0.5 ~sigma:0.25 ~lo:0.0 ~hi:1.0
          in
          if x < 0.0 || x >= 1.0 then Alcotest.fail "escaped"
        done);
    Alcotest.test_case "exponential mean" `Quick (fun () ->
        let rng = Xoshiro.of_int_seed 13 in
        let xs = sample rng 40_000 (fun r -> Dist.exponential r ~rate:2.0) in
        check_close 0.02 "mean" 0.5 (Stats.mean xs);
        List.iter (fun x -> if x < 0.0 then Alcotest.fail "negative") xs);
    Alcotest.test_case "bernoulli frequency" `Quick (fun () ->
        let rng = Xoshiro.of_int_seed 14 in
        let hits = ref 0 in
        for _ = 1 to 20_000 do
          if Dist.bernoulli rng ~p:0.3 then incr hits
        done;
        check_close 0.02 "freq" 0.3 (float_of_int !hits /. 20_000.0));
    Alcotest.test_case "bernoulli p validated" `Quick (fun () ->
        Alcotest.check_raises "p" (Invalid_argument "Dist.bernoulli: p outside [0,1]")
          (fun () -> ignore (Dist.bernoulli (Xoshiro.of_int_seed 0) ~p:1.5)));
    Alcotest.test_case "categorical respects weights" `Quick (fun () ->
        let rng = Xoshiro.of_int_seed 15 in
        let counts = Array.make 3 0 in
        for _ = 1 to 30_000 do
          let k = Dist.categorical rng [| 1.0; 2.0; 1.0 |] in
          counts.(k) <- counts.(k) + 1
        done;
        check_close 0.02 "middle" 0.5 (float_of_int counts.(1) /. 30_000.0));
    Alcotest.test_case "categorical zero-weight bucket never drawn" `Quick
      (fun () ->
        let rng = Xoshiro.of_int_seed 16 in
        for _ = 1 to 5000 do
          if Dist.categorical rng [| 1.0; 0.0; 1.0 |] = 1 then
            Alcotest.fail "drew zero-weight"
        done);
    Alcotest.test_case "categorical validates" `Quick (fun () ->
        Alcotest.check_raises "neg"
          (Invalid_argument "Dist.categorical: negative weight") (fun () ->
            ignore (Dist.categorical (Xoshiro.of_int_seed 0) [| 1.0; -1.0 |])));
    Alcotest.test_case "binomial mean" `Quick (fun () ->
        let rng = Xoshiro.of_int_seed 17 in
        let xs =
          sample rng 20_000 (fun r ->
              float_of_int (Dist.binomial r ~trials:10 ~p:0.4))
        in
        check_close 0.05 "mean" 4.0 (Stats.mean xs));
    Alcotest.test_case "shuffle is a permutation" `Quick (fun () ->
        let rng = Xoshiro.of_int_seed 18 in
        let arr = Array.init 50 (fun i -> i) in
        Dist.shuffle rng arr;
        let sorted = Array.copy arr in
        Array.sort compare sorted;
        check_bool "perm" true (sorted = Array.init 50 (fun i -> i)));
  ]

(* Sampler *)

let sampler_tests =
  [
    Alcotest.test_case "uniform points in square" `Quick (fun () ->
        let rng = Xoshiro.of_int_seed 20 in
        List.iter
          (fun p ->
            if not (Point.in_unit_square p) then Alcotest.fail "escaped")
          (Sampler.points rng Sampler.Uniform 5000));
    Alcotest.test_case "paper gaussian concentrates centrally" `Quick (fun () ->
        let rng = Xoshiro.of_int_seed 21 in
        let pts = Sampler.points rng Sampler.paper_gaussian 10_000 in
        List.iter
          (fun p -> if not (Point.in_unit_square p) then Alcotest.fail "escaped")
          pts;
        let central =
          List.length
            (List.filter
               (fun (p : Point.t) ->
                 Float.abs (p.Point.x -. 0.5) < 0.25
                 && Float.abs (p.Point.y -. 0.5) < 0.25)
               pts)
        in
        (* Central quarter-area window holds ~ 0.68^2 ~ 46% of a 2-sigma
           truncated gaussian, far above the uniform 25%. *)
        check_bool "concentrated" true (central > 3500));
    Alcotest.test_case "clusters stay near centers" `Quick (fun () ->
        let rng = Xoshiro.of_int_seed 22 in
        let centers = [ Point.make 0.25 0.25; Point.make 0.75 0.75 ] in
        let pts =
          Sampler.points rng (Sampler.Clusters { centers; sigma = 0.02 }) 2000
        in
        let near p =
          List.exists (fun c -> Point.distance p c < 0.15) centers
        in
        let strays = List.length (List.filter (fun p -> not (near p)) pts) in
        check_bool "tight" true (strays < 20));
    Alcotest.test_case "cluster center validation" `Quick (fun () ->
        Alcotest.check_raises "outside"
          (Invalid_argument "Sampler.point: cluster center outside unit square")
          (fun () ->
            ignore
              (Sampler.point (Xoshiro.of_int_seed 0)
                 (Sampler.Clusters
                    { centers = [ Point.make 2.0 2.0 ]; sigma = 0.1 }))));
    Alcotest.test_case "points count and determinism" `Quick (fun () ->
        let a = Sampler.points (Xoshiro.of_int_seed 23) Sampler.Uniform 100 in
        let b = Sampler.points (Xoshiro.of_int_seed 23) Sampler.Uniform 100 in
        check_int "count" 100 (List.length a);
        check_bool "same" true (List.for_all2 Point.equal a b));
    Alcotest.test_case "nd points in cube" `Quick (fun () ->
        let rng = Xoshiro.of_int_seed 24 in
        List.iter
          (fun p ->
            if not (Popan_geom.Point_nd.in_unit_cube p) then
              Alcotest.fail "escaped")
          (Sampler.points_nd rng ~dim:4 2000));
    Alcotest.test_case "segments intersect unit square" `Quick (fun () ->
        let rng = Xoshiro.of_int_seed 25 in
        List.iter
          (fun s ->
            if not (Segment.intersects_box s Box.unit) then
              Alcotest.fail "segment misses square")
          (Sampler.segments rng
             (Sampler.Uniform_segments { mean_length = 0.1 })
             500));
    Alcotest.test_case "segment mean length tracks parameter" `Quick (fun () ->
        let rng = Xoshiro.of_int_seed 26 in
        let segs =
          Sampler.segments rng (Sampler.Uniform_segments { mean_length = 0.05 }) 4000
        in
        let mean =
          Stats.mean (List.map Segment.length segs)
        in
        (* Clipping and conditioning shift the mean a little; same scale. *)
        check_bool "scale" true (mean > 0.02 && mean < 0.1));
    Alcotest.test_case "site edges clipped to square" `Quick (fun () ->
        let rng = Xoshiro.of_int_seed 27 in
        let segs =
          Sampler.segments rng (Sampler.Edges_of_sites { sites = 16 }) 300
        in
        check_int "count" 300 (List.length segs);
        List.iter
          (fun (s : Segment.t) ->
            let inside (p : Point.t) =
              p.Point.x >= -1e-9 && p.Point.x <= 1.0 +. 1e-9
              && p.Point.y >= -1e-9 && p.Point.y <= 1.0 +. 1e-9
            in
            if not (inside s.Segment.p1 && inside s.Segment.p2) then
              Alcotest.fail "endpoint escaped")
          segs);
    Alcotest.test_case "negative count rejected" `Quick (fun () ->
        Alcotest.check_raises "n" (Invalid_argument "Sampler.points: n < 0")
          (fun () ->
            ignore (Sampler.points (Xoshiro.of_int_seed 0) Sampler.Uniform (-1))));
  ]

let () =
  (* Group names stay within eight characters: Alcotest cuts long test
     names to fit the line after the widest group name, so a wider
     group would change how the existing test names print. *)
  Alcotest.run "popan_rng"
    [
      ("splitmix", splitmix_tests);
      ("xoshiro", xoshiro_tests);
      ("pins", pin_tests);
      ("fill", fill_tests);
      ("dist", dist_tests);
      ("sampler", sampler_tests);
    ]
