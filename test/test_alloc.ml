(* Allocation regression guard for the arena's insert path.

   The claim under test: a no-split [Pr_arena.insert] into a
   pre-reserved arena over the unit square touches nothing but int and
   float arrays — zero minor-heap words per insert. The measurement is
   [Gc.minor_words] around a large insert loop; a small constant slack
   absorbs the boxing done by the measurement reads themselves, so any
   per-insert allocation (>= 2 words each across thousands of inserts)
   fails loudly while the harness noise does not.

   Only native code makes the claim — bytecode boxes floats at every
   turn — so the assertions are gated on [Sys.backend_type]. *)

module Point = Popan_geom.Point
module Pr_arena = Popan_trees.Pr_arena
module Pr_quadtree = Popan_trees.Pr_quadtree
module Pqueue = Popan_trees.Pqueue
module Xoshiro = Popan_rng.Xoshiro
module Sampler = Popan_rng.Sampler

let inserts = 10_000

(* Slack for the two [Gc.minor_words] float boxes and alcotest's own
   bookkeeping between the reads: far below one word per insert. *)
let slack = 256.0

let points () =
  Array.of_list
    (Sampler.points (Xoshiro.of_int_seed 77) Sampler.Uniform inserts)

let native = match Sys.backend_type with Sys.Native -> true | _ -> false

let measure f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

(* [n] points whose depth-4 groups take the packed kernel's four-level
   step (at 1,024 points or more): half spread over the sixteen depth-4
   cells of [1/4, 1/2)^2, about 2,048 each, half in the depth-8 cell at
   (1/4, 1/4), where a second step nests. *)
let clustered_columns n =
  let col () = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n in
  let xs = col () and ys = col () in
  let rng = Xoshiro.of_int_seed 93 in
  for i = 0 to n - 1 do
    let scale = if i land 1 = 0 then 2 else 8 in
    xs.{i} <- 0.25 +. ldexp (Xoshiro.float rng) (-scale);
    ys.{i} <- 0.25 +. ldexp (Xoshiro.float rng) (-scale)
  done;
  (xs, ys)

(* The most points of the columns any cell at [depth] holds. *)
let fullest_cell (xs, ys) depth =
  let cells = Hashtbl.create 64 and scale = ldexp 1.0 depth in
  let best = ref 0 in
  for i = 0 to Bigarray.Array1.dim xs - 1 do
    let cell =
      (int_of_float (xs.{i} *. scale), int_of_float (ys.{i} *. scale))
    in
    let c = 1 + Option.value (Hashtbl.find_opt cells cell) ~default:0 in
    Hashtbl.replace cells cell c;
    best := max !best c
  done;
  !best

(* The minor words of one build by [build] over the clustered columns,
   after a warm-up build, and a check that its groups take the step. *)
let clustered_build_words n build =
  let cols = clustered_columns n in
  if fullest_cell cols 4 < 1024 || fullest_cell cols 8 < 1024 then
    Alcotest.fail "the clustered input takes no nested four-level step";
  ignore (build cols : Pr_arena.t);
  let tree = ref None in
  let words = measure (fun () -> tree := Some (build cols)) in
  (match !tree with
  | Some t -> Alcotest.check Alcotest.int "all stored" n (Pr_arena.size t)
  | None -> assert false);
  words

let tests =
  [
    Alcotest.test_case "no-split arena insert allocates zero minor words"
      `Quick (fun () ->
        if not native then print_endline "skipped: bytecode boxes floats"
        else begin
          let pts = points () in
          (* capacity >= inserts: the root leaf absorbs everything, so
             no split runs; reserve: the point arrays never double. *)
          let t =
            Pr_arena.create ~capacity:inserts ~reserve:inserts ()
          in
          (* Warm up: first insert of each shape triggers any lazy
             initialization exactly once. *)
          Pr_arena.insert t pts.(0);
          let words =
            measure (fun () ->
                for i = 1 to inserts - 1 do
                  Pr_arena.insert t pts.(i)
                done)
          in
          Alcotest.check Alcotest.int "all stored" inserts (Pr_arena.size t);
          if words > slack then
            Alcotest.failf
              "insert loop allocated %.0f minor words over %d inserts \
               (%.2f words/insert); the arena hot path must not allocate"
              words (inserts - 1)
              (words /. float_of_int (inserts - 1))
        end);
    Alcotest.test_case "positive control: Pr_quadtree inserts do allocate"
      `Quick (fun () ->
        (* If the measurement harness ever stops seeing allocation, the
           zero-alloc assertion above becomes vacuous — the persistent
           tree, which conses a fresh leaf list per insert, proves the
           meter still works. *)
        if not native then print_endline "skipped: bytecode boxes floats"
        else begin
          let pts = points () in
          let tree = ref (Pr_quadtree.create ~capacity:inserts ()) in
          tree := Pr_quadtree.insert !tree pts.(0);
          let words =
            measure (fun () ->
                for i = 1 to inserts - 1 do
                  tree := Pr_quadtree.insert !tree pts.(i)
                done)
          in
          if words < float_of_int inserts then
            Alcotest.failf
              "expected the persistent tree to allocate (got %.0f words); \
               the allocation meter is broken"
              words
        end);
    Alcotest.test_case "bulk build allocates O(1) minor words" `Quick
      (fun () ->
        (* The whole bulk pipeline — fill, radix partition, leaf
           emission — runs on Bigarray columns and int arrays, so its
           minor-heap traffic must not scale with n: a handful of
           Bigarray handles, closures and the recursion's spine, not a
           per-point cost. n = 65536 with a per-point budget of 1/16
           word makes any O(n) leak a loud failure while leaving a few
           thousand words of fixed overhead. *)
        if not native then print_endline "skipped: bytecode boxes floats"
        else begin
          let n = 65_536 in
          let rng = Xoshiro.of_int_seed 91 in
          let pts =
            Array.init n (fun _ -> Sampler.point rng Sampler.Uniform)
          in
          (* Warm-up build: one-time lazy setup (metrics instruments,
             shared tables) charges the first build only. *)
          ignore (Pr_arena.bulk_of_fn ~capacity:8 ~n (fun i -> pts.(i)));
          let tree = ref None in
          let words =
            measure (fun () ->
                tree :=
                  Some (Pr_arena.bulk_of_fn ~capacity:8 ~n (fun i -> pts.(i))))
          in
          (match !tree with
          | Some t -> Alcotest.check Alcotest.int "all stored" n (Pr_arena.size t)
          | None -> assert false);
          if words > float_of_int (n / 16) then
            Alcotest.failf
              "bulk build allocated %.0f minor words for n=%d (%.3f \
               words/point); the Bigarray pipeline must be O(1)"
              words n
              (words /. float_of_int n)
        end);
    Alcotest.test_case "no-merge delete allocates zero minor words" `Quick
      (fun () ->
        (* The churn twin of the insert claim: with capacity >= live
           points the root leaf never splits, so deletes never merge —
           each one is a descent, an unlink and a free-list push, all
           over Bigarray columns and int arrays. *)
        if not native then print_endline "skipped: bytecode boxes floats"
        else begin
          let pts = points () in
          let t = Pr_arena.create ~capacity:inserts ~reserve:inserts () in
          Array.iter (Pr_arena.insert t) pts;
          ignore (Pr_arena.delete t pts.(0) : bool);
          let ok = ref true in
          let words =
            measure (fun () ->
                for i = 1 to inserts - 1 do
                  ok := Pr_arena.delete t pts.(i) && !ok
                done)
          in
          Alcotest.check Alcotest.bool "all deletes hit" true !ok;
          Alcotest.check Alcotest.int "all removed" 0 (Pr_arena.size t);
          if words > slack then
            Alcotest.failf
              "delete loop allocated %.0f minor words over %d deletes \
               (%.2f words/delete); the churn hot path must not allocate"
              words (inserts - 1)
              (words /. float_of_int (inserts - 1))
        end);
    Alcotest.test_case "slot-reusing reinsert allocates zero minor words"
      `Quick (fun () ->
        (* Steady-state churn: delete one point, reinsert another,
           forever. Every insert pops the slot the delete just freed,
           so the columns never grow and the loop must write zero
           minor-heap words — the arena footprint claim, measured. *)
        if not native then print_endline "skipped: bytecode boxes floats"
        else begin
          let pts = points () in
          let t = Pr_arena.create ~capacity:inserts ~reserve:inserts () in
          Array.iter (Pr_arena.insert t) pts;
          let high = Pr_arena.slot_high_water t in
          ignore (Pr_arena.delete t pts.(0) : bool);
          Pr_arena.insert t pts.(0);
          let ok = ref true in
          let words =
            measure (fun () ->
                for i = 1 to inserts - 1 do
                  ok := Pr_arena.delete t pts.(i) && !ok;
                  Pr_arena.insert t pts.(i)
                done)
          in
          Alcotest.check Alcotest.bool "all deletes hit" true !ok;
          Alcotest.check Alcotest.int "size steady" inserts (Pr_arena.size t);
          Alcotest.check Alcotest.int "footprint steady" high
            (Pr_arena.slot_high_water t);
          if words > slack then
            Alcotest.failf
              "churn loop allocated %.0f minor words over %d delete+insert \
               pairs (%.2f words/pair); slot reuse must not allocate"
              words (inserts - 1)
              (words /. float_of_int (inserts - 1))
        end);
    Alcotest.test_case "splits and growth stay amortized-modest" `Quick
      (fun () ->
        (* Not zero — splits bump-allocate node quads and growth doubles
           arrays — but a full 10k-point build must stay far below a
           boxed tree's per-point cons traffic. *)
        if not native then print_endline "skipped: bytecode boxes floats"
        else begin
          let pts = points () in
          let t = Pr_arena.create ~capacity:8 ~reserve:inserts () in
          Pr_arena.insert t pts.(0);
          let words =
            measure (fun () ->
                for i = 1 to inserts - 1 do
                  Pr_arena.insert t pts.(i)
                done)
          in
          Alcotest.check Alcotest.bool "bounded" true
            (words /. float_of_int inserts < 4.0)
        end);
    Alcotest.test_case
      "integer-descent count and nearest allocate zero minor words" `Quick
      (fun () ->
        (* The read-path claim: on a unit-square arena no deeper than 42
           levels, [count_in_box] descends on integer cell coordinates
           and [nearest] ranks quadrants through packed int scratch —
           neither touches the minor heap. The boxes and probe points
           are built before the meter starts; the loops fold into int
           accumulators so nothing escapes. *)
        if not native then print_endline "skipped: bytecode boxes floats"
        else begin
          let module Box = Popan_geom.Box in
          let pts = points () in
          let t = Pr_arena.create ~capacity:8 ~reserve:inserts () in
          Array.iter (Pr_arena.insert t) pts;
          let queries = 1_000 in
          let rng = Xoshiro.of_int_seed 4242 in
          let boxes =
            Array.init queries (fun _ ->
                let w = 0.01 +. (0.4 *. Xoshiro.float rng) in
                let x = (1.0 -. w) *. Xoshiro.float rng in
                let y = (1.0 -. w) *. Xoshiro.float rng in
                Box.make ~xmin:x ~ymin:y ~xmax:(x +. w) ~ymax:(y +. w))
          in
          let probes =
            Array.init queries (fun _ ->
                Sampler.point rng Sampler.Uniform)
          in
          ignore (Pr_arena.count_in_box t boxes.(0) : int);
          (match Pr_arena.nearest t probes.(0) with
          | Some _ -> ()
          | None -> assert false);
          let total = ref 0 in
          let count_words =
            measure (fun () ->
                for i = 0 to queries - 1 do
                  total := !total + Pr_arena.count_in_box t boxes.(i)
                done)
          in
          Alcotest.check Alcotest.bool "counts nonzero" true (!total > 0);
          if count_words > slack then
            Alcotest.failf
              "count_in_box allocated %.0f minor words over %d queries \
               (%.2f words/query); the integer-descent path must not \
               allocate"
              count_words queries
              (count_words /. float_of_int queries);
          let found = ref 0 in
          let nearest_words =
            measure (fun () ->
                for i = 0 to queries - 1 do
                  match Pr_arena.nearest t probes.(i) with
                  | Some _ -> incr found
                  | None -> ()
                done)
          in
          Alcotest.check Alcotest.int "all probes answered" queries !found;
          (* [nearest] has a constant per-call cost — the descent
             closures, the best-so-far scratch array and the
             [Some point] answer, ~53 words — and a zero per-node cost:
             the budget of 64 words/query passes on the constant but
             fails loudly on any per-node allocation (each visited node
             would add boxing on top). *)
          if nearest_words > (64.0 *. float_of_int queries) +. slack then
            Alcotest.failf
              "nearest allocated %.0f minor words over %d queries (%.2f \
               words/query); the descent must only allocate its answer"
              nearest_words queries
              (nearest_words /. float_of_int queries)
        end);
    Alcotest.test_case
      "generator-fed uniform bulk build allocates O(1) minor words" `Quick
      (fun () ->
        (* The sweep's trial path end to end: the uniform sampler
           writes straight into the arena's columns, so drawing and
           building 65536 points must cost no more minor words than
           the build over pre-drawn points above — at most n/16, a
           handful of handles and closures. The positive control is
           the per-point closure path the fill replaced: every
           [Sampler.point] returns a boxed point (7 words with its two
           floats), so it must read above one word per point, or the
           meter has stopped seeing allocation. *)
        if not native then print_endline "skipped: bytecode boxes floats"
        else begin
          let n = 65_536 in
          let fill_build seed =
            let rng = Xoshiro.of_int_seed seed in
            Pr_arena.bulk_of_columns ~capacity:8 ~n (fun xs ys ->
                Sampler.fill rng Sampler.Uniform xs ys n)
          in
          ignore (fill_build 90);
          let tree = ref None in
          let words = measure (fun () -> tree := Some (fill_build 91)) in
          (match !tree with
          | Some t -> Alcotest.check Alcotest.int "all stored" n (Pr_arena.size t)
          | None -> assert false);
          if words > float_of_int (n / 16) then
            Alcotest.failf
              "generator-fed bulk build allocated %.0f minor words for \
               n=%d (%.3f words/point); the uniform fill must not allocate"
              words n
              (words /. float_of_int n);
          let words =
            clustered_build_words n (fun (xs, ys) ->
                Pr_arena.bulk_of_columns ~capacity:8 ~n (fun a b ->
                    for i = 0 to n - 1 do
                      a.{i} <- xs.{i};
                      b.{i} <- ys.{i}
                    done))
          in
          if words > float_of_int (n / 16) then
            Alcotest.failf
              "the clustered bulk build allocated %.0f minor words for \
               n=%d (%.3f words/point); the four-level step must not \
               allocate per step"
              words n
              (words /. float_of_int n);
          let rng = Xoshiro.of_int_seed 91 in
          let control =
            measure (fun () ->
                ignore
                  (Pr_arena.bulk_of_fn ~capacity:8 ~n (fun _ ->
                       Sampler.point rng Sampler.Uniform)
                    : Pr_arena.t))
          in
          if control <= float_of_int n then
            Alcotest.failf
              "expected the per-point closure path to allocate over n \
               words (got %.0f for n=%d); the allocation meter is broken"
              control n
        end);
    Alcotest.test_case "the served Z-ordered build allocates O(1) minor words"
      `Quick (fun () ->
        (* The serving layer's build from caller-owned columns: the
           grouped scatter, the per-group sorts and the in-place
           permutation all run on Bigarray columns and int arrays, so
           at n = 65536 it must stay within n/16 minor words, like the
           generator-fed build above. *)
        if not native then print_endline "skipped: bytecode boxes floats"
        else begin
          let n = 65_536 in
          let column () =
            Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n
          in
          let xs = column () and ys = column () in
          Sampler.fill (Xoshiro.of_int_seed 92) Sampler.Uniform xs ys n;
          ignore (Pr_arena.bulk_zordered ~capacity:8 ~n xs ys);
          let tree = ref None in
          let words =
            measure (fun () ->
                tree := Some (Pr_arena.bulk_zordered ~capacity:8 ~n xs ys))
          in
          (match !tree with
          | Some t ->
            Alcotest.check Alcotest.int "all stored" n (Pr_arena.size t);
            Alcotest.check Alcotest.bool "Z-ordered" true (Pr_arena.is_zordered t)
          | None -> assert false);
          if words > float_of_int (n / 16) then
            Alcotest.failf
              "the Z-ordered build allocated %.0f minor words for n=%d \
               (%.3f words/point); it must be O(1)"
              words n
              (words /. float_of_int n);
          let words =
            clustered_build_words n (fun (xs, ys) ->
                Pr_arena.bulk_zordered ~capacity:8 ~n xs ys)
          in
          if words > float_of_int (n / 16) then
            Alcotest.failf
              "the clustered Z-ordered build allocated %.0f minor words for \
               n=%d (%.3f words/point); the four-level step must not \
               allocate per step"
              words n
              (words /. float_of_int n)
        end);
    Alcotest.test_case
      "instrumented count allocates only its result pair, registry on or off"
      `Quick (fun () ->
        (* [count_in_box_visited] returns an (answer, visits) pair — 3
           words — and reports the subtrees it pruned through
           [Probe.serve_pruned_subtrees], which adds a plain int to a
           sharded counter. With the metrics registry on or off, a query
           over boxes large enough to prune allocates the pair and
           nothing more, and the probe allocates nothing. *)
        if not native then print_endline "skipped: bytecode boxes floats"
        else begin
          let module Box = Popan_geom.Box in
          let module Metrics = Popan_obs.Metrics in
          let module Probe = Popan_obs.Probe in
          let pts = points () in
          let t = Pr_arena.create ~capacity:8 ~reserve:inserts () in
          Array.iter (Pr_arena.insert t) pts;
          let queries = 1_000 in
          let rng = Xoshiro.of_int_seed 4343 in
          let boxes =
            Array.init queries (fun _ ->
                let w = 0.2 +. (0.5 *. Xoshiro.float rng) in
                let x = (1.0 -. w) *. Xoshiro.float rng in
                let y = (1.0 -. w) *. Xoshiro.float rng in
                Box.make ~xmin:x ~ymin:y ~xmax:(x +. w) ~ymax:(y +. w))
          in
          let pruned = Metrics.counter "serve.pruned.subtrees" in
          let was = Metrics.enabled () in
          Fun.protect
            ~finally:(fun () -> Metrics.set_enabled was)
            (fun () ->
              List.iter
                (fun on ->
                  Metrics.set_enabled on;
                  let registry = if on then "on" else "off" in
                  ignore (Pr_arena.count_in_box_visited t boxes.(0) : int * int);
                  Probe.serve_pruned_subtrees 7;
                  let before = Metrics.counter_value pruned in
                  let total = ref 0 in
                  let count_words =
                    measure (fun () ->
                        for i = 0 to queries - 1 do
                          let n, visited =
                            Pr_arena.count_in_box_visited t boxes.(i)
                          in
                          total := !total + n + visited
                        done)
                  in
                  Alcotest.check Alcotest.bool "counts nonzero" true (!total > 0);
                  Alcotest.check Alcotest.bool
                    ("pruned subtrees counted iff the registry is " ^ registry)
                    on
                    (Metrics.counter_value pruned > before);
                  if count_words > (3.0 *. float_of_int queries) +. slack then
                    Alcotest.failf
                      "count_in_box_visited allocated %.0f minor words over \
                       %d queries (%.2f words/query) with the registry %s; \
                       only its result pair (3 words) may allocate"
                      count_words queries
                      (count_words /. float_of_int queries)
                      registry;
                  let probe_words =
                    measure (fun () ->
                        for _ = 1 to queries do
                          Probe.serve_pruned_subtrees 7
                        done)
                  in
                  if probe_words > slack then
                    Alcotest.failf
                      "Probe.serve_pruned_subtrees allocated %.0f minor words \
                       over %d calls with the registry %s; it must allocate \
                       nothing"
                      probe_words queries registry)
                [ false; true ])
        end);
  ]

module Box = Popan_geom.Box
module Wire = Popan_serve.Wire

(* A response the size of a serve-publish batch's: 64 answers of every
   kind, ranges and k-NN lists of up to 16 points. *)
let publish_response () =
  let rng = Xoshiro.of_int_seed 64 in
  let pts k = Array.init k (fun _ -> Sampler.point rng Sampler.Uniform) in
  let answers =
    Array.init 64 (fun i ->
        match i mod 5 with
        | 0 -> Wire.Points (pts 16)
        | 1 -> Wire.Count_of (1000 + i)
        | 2 -> Wire.Points (pts (1 + (i mod 16)))
        | 3 -> Wire.Points (pts 1)
        | _ ->
          Wire.Cell_info
            (10, Box.make ~xmin:0.25 ~ymin:0.5 ~xmax:0.25390625 ~ymax:0.50390625, pts 5))
  in
  Wire.Answers { epoch = 4321; answers }

let wire_tests =
  [
    Alcotest.test_case "a response frame write allocates zero minor words"
      `Quick (fun () ->
        (* The frame is built in the domain's reused scratch, the
           header and checksum in place, and written with one output:
           after one warm-up frame, a thousand more must not touch the
           minor heap. *)
        if not native then print_endline "skipped: bytecode boxes floats"
        else begin
          let resp = publish_response () in
          let oc = open_out_bin Filename.null in
          Fun.protect
            ~finally:(fun () -> close_out oc)
            (fun () ->
              Wire.write_response oc resp;
              let frames = 1000 in
              let words =
                measure (fun () ->
                    for _ = 1 to frames do
                      Wire.write_response oc resp
                    done)
              in
              if words > slack then
                Alcotest.failf
                  "%d response frames allocated %.0f minor words (%.2f per \
                   frame); the frame writer must not allocate"
                  frames words
                  (words /. float_of_int frames))
        end);
    Alcotest.test_case
      "decoding a mixed response allocates its answers, not its bytes"
      `Quick (fun () ->
        (* The reader takes a word at a time and a point array in one
           piece, so decoding a response costs the values it returns: a
           point is three words and its array slot one, an answer a
           few. A 1,024-answer mixed response over 2^16 points must
           decode within 5 minor words per answer point plus 24 per
           answer; a reader that boxes each float on the way (two
           words each) or builds points through a cross-module call
           reads far above that. *)
        if not native then print_endline "skipped: bytecode boxes floats"
        else begin
          let module Codec = Popan_store.Codec in
          let module Server = Popan_serve.Server in
          let n = 65_536 in
          let rng = Xoshiro.of_int_seed 5 in
          let arena =
            Pr_arena.bulk_of_columns ~capacity:8 ~n (fun xs ys ->
                Sampler.fill rng Sampler.Uniform xs ys n)
          in
          let answers =
            Array.map (Server.eval arena) (Server.mixed_queries rng 1024)
          in
          let bytes =
            Codec.encode Wire.response (Wire.Answers { epoch = 1; answers })
          in
          let points =
            Array.fold_left
              (fun acc a ->
                match a with
                | Wire.Points ps | Wire.Cell_info (_, _, ps) ->
                  acc + Array.length ps
                | Wire.Count_of _ | Wire.Rejected _ -> acc)
              0 answers
          in
          ignore (Codec.decode Wire.response bytes : Wire.response);
          let decoded = ref None in
          let words =
            measure (fun () -> decoded := Some (Codec.decode Wire.response bytes))
          in
          (match !decoded with
          | Some (Wire.Answers { answers = a; _ }) ->
            Alcotest.check Alcotest.bool "decodes to the answers" true (a = answers)
          | _ -> Alcotest.fail "the response did not decode to its answers");
          let budget = float_of_int ((5 * points) + (24 * 1024)) in
          Printf.printf "decode: %.0f minor words for %d answer points\n" words
            points;
          if words > budget then
            Alcotest.failf
              "decoding 1024 answers holding %d points allocated %.0f minor \
               words (budget %.0f = 5 per point + 24 per answer)"
              points words budget
        end);
  ]

let knn_tests =
  [
    Alcotest.test_case "Neighbors.worst on a full collector allocates nothing"
      `Quick (fun () ->
        (* Every node a k-NN descent visits reads the pruning bound, so
           reading it must not box: 10^5 reads of a full collector's
           bound, folded into an unboxed float sum, must stay within the
           meter's slack. *)
        if not native then print_endline "skipped: bytecode boxes floats"
        else begin
          let k = 16 in
          let n = Pqueue.Neighbors.create k in
          for i = 1 to 2 * k do
            Pqueue.Neighbors.offer n ~dist:(float_of_int i) i
          done;
          (* A float array cell: a [float ref] would box every sum. *)
          let sum = [| 0.0 |] in
          let calls = 100_000 in
          let words =
            measure (fun () ->
                for _ = 1 to calls do
                  sum.(0) <- sum.(0) +. Pqueue.Neighbors.worst n
                done)
          in
          Alcotest.(check (float 0.0)) "the kth distance"
            (float_of_int (calls * k)) sum.(0);
          if words > slack then
            Alcotest.failf
              "%d Neighbors.worst calls allocated %.0f minor words (%.2f per \
               call); the k-NN pruning bound must not allocate"
              calls words
              (words /. float_of_int calls)
        end);
    Alcotest.test_case "arena k_nearest allocates its answer, not its candidates"
      `Quick (fun () ->
        (* The arena's collector keeps its best k in flat float arrays,
           so a query costs its answer list (six words a point), the
           collector's three arrays of k + 1 slots (3(k + 2) words) and
           a constant: at most 16k + 64 minor words per query over
           1,000 probes of a 2^16-point arena, at k = 1, 8 and 16. A
           collector that allocates a point, an option or a tuple per
           accepted candidate reads far above it. *)
        if not native then print_endline "skipped: bytecode boxes floats"
        else begin
          let n = 65_536 in
          let rng = Xoshiro.of_int_seed 61 in
          let t =
            Pr_arena.bulk_of_columns ~capacity:8 ~n (fun xs ys ->
                Sampler.fill rng Sampler.Uniform xs ys n)
          in
          let queries = 1_000 in
          let probes =
            Array.init queries (fun _ -> Sampler.point rng Sampler.Uniform)
          in
          List.iter
            (fun k ->
              ignore (Pr_arena.k_nearest t k probes.(0) : Point.t list);
              let found = ref 0 in
              let words =
                measure (fun () ->
                    for i = 0 to queries - 1 do
                      found := !found + List.length (Pr_arena.k_nearest t k probes.(i))
                    done)
              in
              Alcotest.check Alcotest.int
                (Printf.sprintf "k = %d answered in full" k)
                (k * queries) !found;
              let per_query = words /. float_of_int queries in
              Printf.printf "k = %d: %.1f minor words per query\n" k per_query;
              if per_query > float_of_int ((16 * k) + 64) then
                Alcotest.failf
                  "k_nearest at k = %d allocated %.1f minor words per query \
                   (budget %d = 16k + 64)"
                  k per_query ((16 * k) + 64))
            [ 1; 8; 16 ]
        end);
  ]

let () =
  Alcotest.run "popan_alloc"
    [ ("arena", tests); ("wire", wire_tests); ("knn", knn_tests) ]
