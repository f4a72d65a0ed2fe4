(* Benchmark harness: one Bechamel test per table/figure of the paper
   (micro-benchmarks of each experiment's kernel), followed by a full
   regeneration of every table and figure with the paper's parameters.

   Run with:  dune exec bench/main.exe *)

open Bechamel
open Toolkit
open Popan_experiments
module Table = Popan_report.Table
module Population = Popan_core.Population
module Fixed_point = Popan_core.Fixed_point
module Pr_model = Popan_core.Pr_model
module Newton_model = Popan_core.Newton_model
module Mc_transform = Popan_core.Mc_transform
module Pr_quadtree = Popan_trees.Pr_quadtree
module Pr_arena = Popan_trees.Pr_arena
module Ext_hash = Popan_trees.Ext_hash
module Sampler = Popan_rng.Sampler
module Xoshiro = Popan_rng.Xoshiro
module Store = Popan_store.Artifact_store
module Probe = Popan_obs.Probe
module Metrics = Popan_obs.Metrics
module Event = Popan_obs.Event
module Flight = Popan_obs.Flight
module Sketch = Popan_obs.Sketch

(* A stray POPAN_CACHE in the environment must not contaminate the
   compute benches with replays; the cache ablation below opts in with
   explicit throwaway stores. *)
let () = Store.set_default None

(* Pre-generated workloads so the benches measure the data structure and
   solver, not the RNG. *)

let uniform_points n =
  let rng = Xoshiro.of_int_seed 1 in
  Sampler.points rng Sampler.Uniform n

let gaussian_points n =
  let rng = Xoshiro.of_int_seed 2 in
  Sampler.points rng (Sampler.Gaussian { sigma = 0.25 }) n

let points_1000 = uniform_points 1000
let points_1024 = uniform_points 1024
let gaussian_1024 = gaussian_points 1024

(* One kernel per table / figure. *)

let bench_table1 =
  (* Table 1's unit of work: build a 1000-point PR quadtree at a middle
     capacity and extract its occupancy distribution. *)
  Test.make ~name:"table1:build+distribution m=4"
    (Staged.stage (fun () ->
         let tree = Pr_quadtree.of_points ~capacity:4 points_1000 in
         Sys.opaque_identity (Pr_quadtree.occupancy_histogram tree)))

let bench_table2 =
  (* Table 2's theoretical column: solve the fixed point at the largest
     capacity. *)
  Test.make ~name:"table2:fixed-point solve m=8"
    (Staged.stage (fun () ->
         Sys.opaque_identity
           (Population.expected_distribution ~branching:4 ~capacity:8 ())))

let bench_table3 =
  Test.make ~name:"table3:depth profile m=1 depth<=9"
    (Staged.stage (fun () ->
         let tree = Pr_quadtree.of_points ~max_depth:9 ~capacity:1 points_1000 in
         Sys.opaque_identity (Pr_quadtree.occupancy_by_depth tree)))

let bench_table4_fig2 =
  Test.make ~name:"table4+fig2:sweep step n=1024 uniform m=8"
    (Staged.stage (fun () ->
         let tree = Pr_quadtree.of_points ~capacity:8 points_1024 in
         Sys.opaque_identity (Pr_quadtree.average_occupancy tree)))

let bench_table5_fig3 =
  Test.make ~name:"table5+fig3:sweep step n=1024 gaussian m=8"
    (Staged.stage (fun () ->
         let tree = Pr_quadtree.of_points ~capacity:8 gaussian_1024 in
         Sys.opaque_identity (Pr_quadtree.average_occupancy tree)))

let bench_solver_power =
  let transform = Pr_model.transform ~branching:4 ~capacity:8 in
  Test.make ~name:"ablation:power iteration m=8"
    (Staged.stage (fun () -> Sys.opaque_identity (Fixed_point.solve transform)))

let bench_solver_newton =
  let transform = Pr_model.transform ~branching:4 ~capacity:8 in
  Test.make ~name:"ablation:newton m=8"
    (Staged.stage (fun () -> Sys.opaque_identity (Newton_model.solve transform)))

let bench_mc_transform =
  Test.make ~name:"ablation:monte-carlo transform m=3 (1000 trials)"
    (Staged.stage (fun () ->
         let rng = Xoshiro.of_int_seed 3 in
         Sys.opaque_identity
           (Mc_transform.estimate ~trials:1000 rng
              (Mc_transform.pr_point_model ~capacity:3))))

let bench_ext_hash =
  Test.make ~name:"ext:extendible hashing insert 1024"
    (Staged.stage (fun () ->
         let table = Ext_hash.create ~bucket_size:8 () in
         Ext_hash.insert_all table points_1024;
         Sys.opaque_identity (Ext_hash.utilization table)))

let bench_excell =
  Test.make ~name:"ext:EXCELL insert 1024"
    (Staged.stage (fun () ->
         let table = Popan_trees.Excell.create ~bucket_size:8 () in
         Popan_trees.Excell.insert_all table points_1024;
         Sys.opaque_identity (Popan_trees.Excell.utilization table)))

let bench_mx_cif =
  let boxes =
    let rng = Xoshiro.of_int_seed 4 in
    List.init 1024 (fun _ ->
        let cx = 0.05 +. (0.9 *. Xoshiro.float rng) in
        let cy = 0.05 +. (0.9 *. Xoshiro.float rng) in
        let h = 0.002 +. (0.02 *. Xoshiro.float rng) in
        Popan_geom.Box.make ~xmin:(cx -. h) ~ymin:(cy -. h) ~xmax:(cx +. h)
          ~ymax:(cy +. h))
  in
  Test.make ~name:"ext:MX-CIF insert 1024 rectangles"
    (Staged.stage (fun () ->
         Sys.opaque_identity (Popan_trees.Mx_cif_quadtree.of_boxes boxes)))

let bench_nearest_seq =
  let tree = Pr_quadtree.of_points ~capacity:8 points_1024 in
  let probe = Popan_geom.Point.make 0.5 0.5 in
  Test.make ~name:"ext:incremental 10-NN from 1024 points"
    (Staged.stage (fun () ->
         Sys.opaque_identity
           (List.of_seq (Seq.take 10 (Pr_quadtree.nearest_seq tree probe)))))

let bench_incremental_build =
  Test.make ~name:"ablation:incremental build m=8 n=1024"
    (Staged.stage (fun () ->
         Sys.opaque_identity (Pr_quadtree.of_points ~capacity:8 points_1024)))

let bench_bulk_build =
  Test.make ~name:"ablation:bulk build m=8 n=1024"
    (Staged.stage (fun () ->
         Sys.opaque_identity (Pr_quadtree.of_points_bulk ~capacity:8 points_1024)))

(* The arena core against the persistent structure, on the same 1024
   points: bulk-vs-incremental prices the Morton sort against 1024
   root-to-leaf descents. A 16k pair checks the gap does not close at
   larger n. *)

let bench_arena_build =
  Test.make ~name:"ablation:arena build m=8 n=1024"
    (Staged.stage (fun () ->
         Sys.opaque_identity (Pr_arena.of_points ~capacity:8 points_1024)))

let bench_arena_bulk_build =
  Test.make ~name:"ablation:arena bulk build m=8 n=1024"
    (Staged.stage (fun () ->
         Sys.opaque_identity (Pr_arena.of_points_bulk ~capacity:8 points_1024)))

let bench_arena_build_freeze =
  Test.make ~name:"ablation:arena build+freeze m=8 n=1024"
    (Staged.stage (fun () ->
         Sys.opaque_identity
           (Pr_arena.freeze (Pr_arena.of_points ~capacity:8 points_1024))))

let points_16384 = uniform_points 16384

let bench_arena_build_16k =
  Test.make ~name:"ablation:arena build m=8 n=16384"
    (Staged.stage (fun () ->
         Sys.opaque_identity (Pr_arena.of_points ~capacity:8 points_16384)))

let bench_arena_bulk_build_16k =
  Test.make ~name:"ablation:arena bulk build m=8 n=16384"
    (Staged.stage (fun () ->
         Sys.opaque_identity
           (Pr_arena.of_points_bulk ~capacity:8 points_16384)))

(* PR 6 ablation: the radix kernel itself, int arrays vs Bigarrays.

   PR 5's bulk build kept packed keys [(code lsl 21) lor slot] in plain
   OCaml int arrays — which is also why it fell back to incremental
   inserts past 2^21 points: the slot field ran out of bits. PR 6 moved
   every column into Bigarrays and widened the codes to two words. The
   library keeps the packed kernel ([Pr_arena]'s [build_packed], the
   kernel of heap builds up to 2^21 - 1 points), but it is internal and
   emits a tree as it sorts, so it is reimplemented here, stripped to
   the part the layouts disagree on:
   the MSD two-bit counting partition, recursing until ranges reach
   capacity 8. The Bigarray twin is the identical control flow over an
   [Bigarray.int] column. Both runs start from a blit of the same
   pristine keys and fold the leaf ranges so nothing is dead-code
   eliminated; their ratio prices exactly the array-access swap the
   arena made.

   [sh0] is the bit offset of the code above the slot field: 21
   ([Morton.bits]) for PR 5-style packed keys, 0 for raw codes. *)

let morton_bits = Popan_geom.Morton.bits

let rec radix_array src dst cnt lo hi depth sh0 leaves =
  if hi - lo <= 8 || depth >= morton_bits then incr leaves
  else begin
    let sh = (2 * (morton_bits - 1 - depth)) + sh0 in
    cnt.(0) <- 0; cnt.(1) <- 0; cnt.(2) <- 0; cnt.(3) <- 0;
    for k = lo to hi - 1 do
      let d = (src.(k) lsr sh) land 3 in
      cnt.(d) <- cnt.(d) + 1
    done;
    let e1 = lo + cnt.(0) in
    let e2 = e1 + cnt.(1) in
    let e3 = e2 + cnt.(2) in
    cnt.(0) <- lo; cnt.(1) <- e1; cnt.(2) <- e2; cnt.(3) <- e3;
    for k = lo to hi - 1 do
      let v = src.(k) in
      let d = (v lsr sh) land 3 in
      let p = cnt.(d) in
      dst.(p) <- v;
      cnt.(d) <- p + 1
    done;
    let cdepth = depth + 1 in
    radix_array dst src cnt lo e1 cdepth sh0 leaves;
    radix_array dst src cnt e1 e2 cdepth sh0 leaves;
    radix_array dst src cnt e2 e3 cdepth sh0 leaves;
    radix_array dst src cnt e3 hi cdepth sh0 leaves
  end

type iarr = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let rec radix_big (src : iarr) (dst : iarr) cnt lo hi depth sh0 leaves =
  if hi - lo <= 8 || depth >= morton_bits then incr leaves
  else begin
    let sh = (2 * (morton_bits - 1 - depth)) + sh0 in
    cnt.(0) <- 0; cnt.(1) <- 0; cnt.(2) <- 0; cnt.(3) <- 0;
    for k = lo to hi - 1 do
      let d = (src.{k} lsr sh) land 3 in
      cnt.(d) <- cnt.(d) + 1
    done;
    let e1 = lo + cnt.(0) in
    let e2 = e1 + cnt.(1) in
    let e3 = e2 + cnt.(2) in
    cnt.(0) <- lo; cnt.(1) <- e1; cnt.(2) <- e2; cnt.(3) <- e3;
    for k = lo to hi - 1 do
      let v = src.{k} in
      let d = (v lsr sh) land 3 in
      let p = cnt.(d) in
      dst.{p} <- v;
      cnt.(d) <- p + 1
    done;
    let cdepth = depth + 1 in
    radix_big dst src cnt lo e1 cdepth sh0 leaves;
    radix_big dst src cnt e1 e2 cdepth sh0 leaves;
    radix_big dst src cnt e2 e3 cdepth sh0 leaves;
    radix_big dst src cnt e3 hi cdepth sh0 leaves
  end

let points_65536 = uniform_points 65536

let packed_keys_65536 =
  let keys = Array.make 65536 0 in
  List.iteri
    (fun i p -> keys.(i) <- (Popan_geom.Morton.encode p lsl morton_bits) lor i)
    points_65536;
  keys

let bigarray_of_array a : iarr =
  let b = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (Array.length a) in
  Array.iteri (fun i v -> b.{i} <- v) a;
  b

let packed_keys_big_65536 = bigarray_of_array packed_keys_65536

let bench_radix_array_64k =
  let work = Array.copy packed_keys_65536 in
  let scratch = Array.copy packed_keys_65536 in
  let cnt = Array.make 4 0 in
  Test.make ~name:"ablation:radix kernel int-array (PR5 packed) n=65536"
    (Staged.stage (fun () ->
         Array.blit packed_keys_65536 0 work 0 65536;
         let leaves = ref 0 in
         radix_array work scratch cnt 0 65536 0 morton_bits leaves;
         Sys.opaque_identity !leaves))

let bench_radix_big_64k =
  let work = bigarray_of_array packed_keys_65536 in
  let scratch = bigarray_of_array packed_keys_65536 in
  let cnt = Array.make 4 0 in
  Test.make ~name:"ablation:radix kernel bigarray n=65536"
    (Staged.stage (fun () ->
         Bigarray.Array1.blit packed_keys_big_65536 work;
         let leaves = ref 0 in
         radix_big work scratch cnt 0 65536 0 morton_bits leaves;
         Sys.opaque_identity !leaves))

(* The whole PR 5 path, reimplemented faithfully: heap arrays for every
   column, packed keys, the same sort, leaf emission through an
   intrusive next chain, node arrays grown by doubling — and the same
   per-element bookkeeping the real build carried (a bounds check per
   point, the O(1) statistics per leaf, a probe per split). This is
   the end-to-end build [of_points_bulk] performed before the Bigarray
   arena — the acceptance bar compares it against today's build at
   n=2^16. The float path and depth cap are omitted: uniform points at
   capacity 8 never reach depth 21, so they cost neither build
   anything here. *)

let slot_mask = (1 lsl morton_bits) - 1
let quantize_scale = float_of_int (1 lsl morton_bits)

(* PR 5's fill encoded via [point_code t x y] — floats passed to a
   non-inlined call box (2 words each per point), the very cost the
   PR 6 fill was rewritten to avoid. The baseline must keep it: this
   session measured ~4 minor words per point on the inherited call
   shape, and BENCH_PR5.json's n=16384 row is consistent with it. *)
let[@inline never] pr5_point_code x y =
  Popan_geom.Morton.interleave
    (int_of_float (x *. quantize_scale))
    (int_of_float (y *. quantize_scale))

let pr5_bulk_build ~capacity points =
  (* PR 5's entry point took a list and measured it — the length walk
     is part of the path being compared against. *)
  let n = List.length points in
  let xs = Array.create_float n and ys = Array.create_float n in
  let codes = Array.make n 0 in
  let packed = Array.make n 0 in
  let i = ref 0 in
  List.iter
    (fun (p : Popan_geom.Point.t) ->
      if not (Popan_geom.Box.contains Popan_geom.Box.unit p) then
        invalid_arg "pr5_bulk_build: point outside bounds";
      let x = p.Popan_geom.Point.x and y = p.Popan_geom.Point.y in
      xs.(!i) <- x;
      ys.(!i) <- y;
      let code = pr5_point_code x y in
      codes.(!i) <- code;
      packed.(!i) <- (code lsl morton_bits) lor !i;
      incr i)
    points;
  let cap = ref 16 in
  let child = ref (Array.make !cap (-1)) in
  let count = ref (Array.make !cap 0) in
  let head = ref (Array.make !cap (-1)) in
  let next = Array.make n (-1) in
  let nodes = ref 1 in
  let leaves = ref 0 in
  let internals = ref 0 in
  let height = ref 0 in
  let hist = Array.make (capacity + 1) 0 in
  let alloc_children () =
    if !nodes + 4 > !cap then begin
      let ncap = 2 * !cap in
      let grow a fill =
        let b = Array.make ncap fill in
        Array.blit !a 0 b 0 !nodes;
        a := b
      in
      grow child (-1);
      grow count 0;
      grow head (-1);
      cap := ncap
    end;
    let base = !nodes in
    nodes := base + 4;
    base
  in
  let emit src lo hi node depth =
    let m = hi - lo in
    !count.(node) <- m;
    if m > 0 then begin
      for k = lo to hi - 2 do
        next.(src.(k) land slot_mask) <- src.(k + 1) land slot_mask
      done;
      next.(src.(hi - 1) land slot_mask) <- -1;
      !head.(node) <- src.(lo) land slot_mask
    end;
    incr leaves;
    hist.(min m capacity) <- hist.(min m capacity) + 1;
    if depth > !height then height := depth
  in
  let cnt = Array.make 4 0 in
  let scratch = Array.make n 0 in
  let rec build src dst lo hi node depth =
    if hi - lo <= capacity || depth >= morton_bits then
      emit src lo hi node depth
    else begin
      incr internals;
      Probe.builder_split ~depth;
      let sh = (2 * (morton_bits - 1 - depth)) + morton_bits in
      cnt.(0) <- 0; cnt.(1) <- 0; cnt.(2) <- 0; cnt.(3) <- 0;
      for k = lo to hi - 1 do
        let d = (src.(k) lsr sh) land 3 in
        cnt.(d) <- cnt.(d) + 1
      done;
      let e1 = lo + cnt.(0) in
      let e2 = e1 + cnt.(1) in
      let e3 = e2 + cnt.(2) in
      cnt.(0) <- lo; cnt.(1) <- e1; cnt.(2) <- e2; cnt.(3) <- e3;
      for k = lo to hi - 1 do
        let v = src.(k) in
        let d = (v lsr sh) land 3 in
        let p = cnt.(d) in
        dst.(p) <- v;
        cnt.(d) <- p + 1
      done;
      let base = alloc_children () in
      !child.(node) <- base;
      let cdepth = depth + 1 in
      build dst src lo e1 base cdepth;
      build dst src e1 e2 (base + 1) cdepth;
      build dst src e2 e3 (base + 2) cdepth;
      build dst src e3 hi (base + 3) cdepth
    end
  in
  build packed scratch 0 n 0 0;
  (xs, ys, codes, next, !leaves, !internals, !height, hist, !nodes)

let bench_pr5_path_bulk_64k =
  Test.make ~name:"ablation:PR5-path bulk build (heap arrays) m=8 n=65536"
    (Staged.stage (fun () ->
         Sys.opaque_identity (pr5_bulk_build ~capacity:8 points_65536)))

(* The whole bulk build at the same size, sequential and at jobs 4 —
   the end-to-end numbers the rows above decompose. *)

let bench_arena_bulk_build_64k =
  Test.make ~name:"ablation:arena bulk build m=8 n=65536"
    (Staged.stage (fun () ->
         Sys.opaque_identity
           (Pr_arena.of_points_bulk ~capacity:8 points_65536)))

let points_4096 = uniform_points 4096

let bench_persistent_snapshot =
  let tree = Pr_quadtree.of_points ~capacity:8 points_4096 in
  Test.make ~name:"ablation:snapshot stats O(tree) n=4096"
    (Staged.stage (fun () ->
         Sys.opaque_identity
           ( Pr_quadtree.leaf_count tree,
             Pr_quadtree.average_occupancy tree,
             Pr_quadtree.occupancy_histogram tree )))

(* The deterministic multicore trial engine: the same experiment kernel
   at 1/2/4 domains. The outputs are byte-identical (enforced by the
   qcheck properties in test/test_parallel.ml); only the wall clock may
   differ, and only on a multicore machine. *)

(* On a single-core host a j>1 pool still spawns real domains, but they
   can only time-slice the one core: those rows measure scheduling
   overhead, not speedup. Tag their keys so the JSON trajectory never
   reads a time-sliced number as a parallel one. *)
let single_core = Popan_parallel.recommended_jobs () = 1

let parallel_bench_name fmt jobs =
  let base = Printf.sprintf fmt jobs in
  if jobs > 1 && single_core then base ^ " [single-core: time-slicing]"
  else base

let bench_sweep_jobs jobs =
  Test.make
    ~name:(parallel_bench_name "parallel:table4 sweep j=%d" jobs)
    (Staged.stage (fun () ->
         Sys.opaque_identity
           (Sweep.run ~capacity:8 ~jobs ~model:Sampler.Uniform ~trials:10
              ~seed:1987 ())))

let bench_mc_transform_jobs jobs =
  Test.make
    ~name:(parallel_bench_name "parallel:mc transform m=3 (1000 trials) j=%d" jobs)
    (Staged.stage (fun () ->
         let rng = Xoshiro.of_int_seed 3 in
         Sys.opaque_identity
           (Mc_transform.estimate ~trials:1000 ~jobs rng
              (Mc_transform.pr_point_model ~capacity:3))))

let bench_arena_bulk_jobs jobs =
  Test.make
    ~name:(parallel_bench_name "parallel:arena bulk build m=8 n=65536 j=%d" jobs)
    (Staged.stage (fun () ->
         Sys.opaque_identity
           (Pr_arena.of_points_bulk ~jobs ~capacity:8 points_65536)))

(* The artifact-store ablation: the table4 sweep kernel uncached, cold
   (compute + publish every trial), and warm (replay every trial from
   disk, zero tree builds); likewise for the incremental engine, whose
   cold runs also publish mid-trial checkpoints and whose resume bench
   restarts every trial from its newest checkpoint. Stores live in a
   throwaway temp directory removed at exit. *)

let cache_root =
  let dir = Filename.temp_dir "popan-bench-cache" "" in
  let rec rm_rf path =
    if Sys.is_directory path then begin
      Array.iter (fun name -> rm_rf (Filename.concat path name))
        (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  at_exit (fun () -> try rm_rf dir with Sys_error _ -> ());
  dir

let with_store store f =
  let saved = Store.default () in
  Store.set_default store;
  Fun.protect ~finally:(fun () -> Store.set_default saved) f

let sweep_once ?seed:(s = 1987) () =
  Sweep.run ~capacity:8 ~jobs:1 ~model:Sampler.Uniform ~trials:10 ~seed:s ()

let sweep_incr_once ?seed:(s = 1987) () =
  Sweep.run_incremental ~capacity:8 ~jobs:1 ~model:Sampler.Uniform ~trials:10
    ~seed:s ()

let bench_sweep_uncached =
  Test.make ~name:"cache:table4 sweep uncached"
    (Staged.stage (fun () ->
         with_store None (fun () -> Sys.opaque_identity (sweep_once ()))))

(* Cold runs must miss every time, so each run takes a fresh seed — the
   keys (and hence the trials) are new, but the work per run is the
   same distribution of builds plus the publish cost. *)
let cold_store = Store.open_store (Filename.concat cache_root "cold")
let cold_seed = ref 100_000

let bench_sweep_cold =
  Test.make ~name:"cache:table4 sweep cold (compute+publish)"
    (Staged.stage (fun () ->
         incr cold_seed;
         with_store (Some cold_store) (fun () ->
             Sys.opaque_identity (sweep_once ~seed:!cold_seed ()))))

let warm_store = Store.open_store (Filename.concat cache_root "warm")

let () =
  (* Populate once; every measured warm run is then a pure replay. *)
  with_store (Some warm_store) (fun () ->
      ignore (sweep_once ());
      ignore (sweep_incr_once ()))

let bench_sweep_warm =
  Test.make ~name:"cache:table4 sweep warm (replay)"
    (Staged.stage (fun () ->
         with_store (Some warm_store) (fun () ->
             Sys.opaque_identity (sweep_once ()))))

let bench_incr_uncached =
  Test.make ~name:"cache:incremental sweep uncached"
    (Staged.stage (fun () ->
         with_store None (fun () -> Sys.opaque_identity (sweep_incr_once ()))))

let bench_incr_cold =
  Test.make ~name:"cache:incremental sweep cold (compute+checkpoints)"
    (Staged.stage (fun () ->
         incr cold_seed;
         with_store (Some cold_store) (fun () ->
             Sys.opaque_identity (sweep_incr_once ~seed:!cold_seed ()))))

let bench_incr_warm =
  Test.make ~name:"cache:incremental sweep warm (replay)"
    (Staged.stage (fun () ->
         with_store (Some warm_store) (fun () ->
             Sys.opaque_identity (sweep_incr_once ()))))

(* Resume: a store holding only mid-trial checkpoints (the whole-trial
   entries are dropped before each run), so every trial restarts from
   its newest checkpoint and grows the remaining grid sizes. *)
let resume_store = Store.open_store (Filename.concat cache_root "resume")

let () =
  with_store (Some resume_store) (fun () -> ignore (sweep_incr_once ()))

let drop_finished_trials () =
  List.iter
    (fun (e : Store.entry) ->
      if e.kind = "trial-grow" then try Sys.remove e.path with Sys_error _ -> ())
    (Store.entries resume_store)

let () = drop_finished_trials ()

let bench_incr_resume =
  Test.make ~name:"cache:incremental sweep resume from checkpoints"
    (Staged.stage (fun () ->
         drop_finished_trials ();
         with_store (Some resume_store) (fun () ->
             Sys.opaque_identity (sweep_incr_once ()))))

(* The observability ablation: the same table4 sweep kernel (and its
   incremental twin) with the obs registry off, with metrics only, and
   with metrics + span tracing. Disabled probes are a single flag check,
   so obs-off must sit within noise of the uncached benches above; the
   two enabled rows price the counter/histogram hot path and the ring
   writes. Each run flips the level around the kernel and restores
   [`Off] so the other benches stay uninstrumented. *)

let with_obs level f =
  Probe.set_level level;
  Fun.protect ~finally:(fun () -> Probe.set_level `Off) f

let bench_obs_sweep level tag =
  Test.make ~name:(Printf.sprintf "obs:table4 sweep %s" tag)
    (Staged.stage (fun () ->
         with_obs level (fun () -> Sys.opaque_identity (sweep_once ()))))

let bench_obs_incr level tag =
  Test.make ~name:(Printf.sprintf "obs:incremental sweep %s" tag)
    (Staged.stage (fun () ->
         with_obs level (fun () -> Sys.opaque_identity (sweep_incr_once ()))))

(* PR 7 ablation: steady-state churn against insert-only growth. The
   event stream is generated once up front — the generator is
   deterministic and independent of the tree — so each run replays the
   identical operations over a fresh arena. Insert-only prices 4096
   root-to-leaf descents on top of the 1024-point base build; the mixed
   stream replaces half of those with deletes (same descent plus the
   eager-merge check) and folds in moving objects (delete + drifted
   reinsert), pricing the churn engine's steady-state op against pure
   growth at an identical op count. *)

let churn_ops = 4096

let churn_spec =
  Workload.Churn.make ~points:1024 ~trials:1 ~seed:7 ~ops:churn_ops
    ~insert_fraction:0.5 ~update_fraction:(1.0 /. 3.0) ~drift_sigma:0.01 ()

let churn_initial, churn_events =
  let rng =
    List.hd (Workload.Churn.map_trials churn_spec ~f:(fun _ rng -> rng))
  in
  let st = Workload.Churn.start churn_spec ~rng in
  let initial = Array.to_list (Workload.Churn.live st) in
  let events =
    Array.init churn_ops (fun _ -> Workload.Churn.step churn_spec st)
  in
  (initial, events)

let churn_apply arena = function
  | Workload.Churn.Insert p -> Pr_arena.insert arena p
  | Workload.Churn.Delete p -> ignore (Pr_arena.delete arena p)
  | Workload.Churn.Update (p, q) -> ignore (Pr_arena.update arena p q)

(* The insert-only control draws from its own stream so both benches
   touch 4096 fresh points nobody else caches. *)
let churn_insert_stream =
  let rng = Xoshiro.of_int_seed 7 in
  Array.of_list (Sampler.points rng Sampler.Uniform churn_ops)

let bench_churn_insert_only =
  Test.make ~name:"ablation:churn insert-only m=8 base=1024 ops=4096"
    (Staged.stage (fun () ->
         let arena = Pr_arena.of_points_bulk ~capacity:8 churn_initial in
         Array.iter (Pr_arena.insert arena) churn_insert_stream;
         Sys.opaque_identity (Pr_arena.size arena)))

let bench_churn_mixed =
  Test.make ~name:"ablation:churn mixed stream m=8 base=1024 ops=4096"
    (Staged.stage (fun () ->
         let arena = Pr_arena.of_points_bulk ~capacity:8 churn_initial in
         Array.iter (churn_apply arena) churn_events;
         Sys.opaque_identity (Pr_arena.size arena)))

(* PR 8 serving ablation: a 1024-query mixed batch (ranges, counts,
   k-NN, nearest, point-in-cell) over a 16384-point arena, answered
   three ways — arena-native sequentially, arena-native fanned out on
   the deterministic pool at 1/2/4 domains, and the pre-PR 8 shape:
   freeze the arena into the persistent tree and query that (the freeze
   is part of the measured cost — it is what serving a batch used to
   require). The arena and batch are generated once; every run replays
   the identical queries. *)

module Wire = Popan_serve.Wire
module Server = Popan_serve.Server

let serve_n = 16_384
let serve_batch = 1_024

let serve_arena =
  let rng = Xoshiro.of_int_seed 1987 in
  Pr_arena.of_points_bulk ~capacity:8 (Sampler.points rng Sampler.Uniform serve_n)

let serve_queries =
  Server.mixed_queries (Xoshiro.of_int_seed 271828) serve_batch

(* The persistent-tree evaluation the freeze-then-query baseline runs
   per query — the pre-arena serving shape, producing the same
   [Wire.answer] payloads the arena path does. *)
let persistent_eval tree (q : Wire.query) : Wire.answer =
  match q with
  | Wire.Range b -> Wire.Points (Array.of_list (Pr_quadtree.query_box tree b))
  | Wire.Count b -> Wire.Count_of (Pr_quadtree.count_in_box tree b)
  | Wire.Knn (k, p) ->
    Wire.Points (Array.of_list (Pr_quadtree.k_nearest tree k p))
  | Wire.Nearest p -> (
    match Pr_quadtree.nearest tree p with
    | None -> Wire.Points [||]
    | Some q -> Wire.Points [| q |])
  | Wire.Cell p ->
    let depth, box, pts = Pr_quadtree.leaf_at tree p in
    Wire.Cell_info (depth, box, Array.of_list pts)

let bench_serve_sequential =
  Test.make
    ~name:(Printf.sprintf "serve:batch %d mixed arena-native seq n=%d"
             serve_batch serve_n)
    (Staged.stage (fun () ->
         Sys.opaque_identity
           (Array.map (Server.eval serve_arena) serve_queries)))

(* A bench over a pool of [jobs] domains, spawned when the bench starts
   and shut down when it ends: the bench times the batch, not domain
   startup, and no pool outlives its bench — parked domains would take
   part in every other bench's stop-the-world minor collections. *)
let pool_bench ~name jobs f =
  Test.make_with_resource ~name Test.uniq
    ~allocate:(fun () -> Popan_parallel.Pool.create ~jobs ())
    ~free:Popan_parallel.Pool.shutdown (Staged.stage f)

let bench_serve_jobs jobs =
  pool_bench
    ~name:(parallel_bench_name
             (format_of_string "serve:batch 1024 mixed arena-native n=16384 j=%d")
             jobs)
    jobs
    (fun pool ->
      Sys.opaque_identity (Server.run_batch pool serve_arena serve_queries))

let bench_serve_freeze_then_query =
  Test.make
    ~name:(Printf.sprintf "serve:batch %d mixed freeze-then-query n=%d"
             serve_batch serve_n)
    (Staged.stage (fun () ->
         let tree = Pr_arena.freeze serve_arena in
         Sys.opaque_identity (Array.map (persistent_eval tree) serve_queries)))

(* PR 9 telemetry ablation: the identical 1024-query batch on the j=1
   pool with full telemetry live — metrics registry on (per-query
   latency and visited-count sketches) plus the flight recorder. The
   obs-off rows above keep their PR 8 names untouched, so the JSON
   trajectory prices the telemetry layer directly against them; the
   acceptance bar says within 10%. Enable/disable flips inside the run
   are two atomics against a millisecond-scale batch. *)
let bench_serve_telemetry =
  pool_bench
    ~name:(Printf.sprintf
             "serve:batch %d mixed arena-native n=%d j=1 telemetry"
             serve_batch serve_n)
    1
    (fun pool ->
      Metrics.set_enabled true;
      Flight.enable ();
      Fun.protect
        ~finally:(fun () ->
          Metrics.set_enabled false;
          Flight.disable ())
        (fun () ->
          Sys.opaque_identity
            (Server.run_batch ~epoch:0 pool serve_arena serve_queries)))

(* The query-kernel rows: the pruned count at three
   selectivities (the fraction of the unit square the target covers).
   The larger the box, the more whole subtrees the kernel answers from
   the subtree-count field in O(1). Pruning's claim against the walk
   that enters every intersecting node is a count gate in test_serve's
   pruning group, which no host can move. *)
let query_arena_64k =
  let rng = Xoshiro.of_int_seed 424242 in
  Pr_arena.of_points_bulk ~capacity:8
    (Sampler.points rng Sampler.Uniform 65_536)

(* 90% selectivity = side sqrt 0.9 ~ 0.9487. *)
let sel_boxes =
  [ ("1%", Popan_geom.Box.make ~xmin:0.45 ~ymin:0.45 ~xmax:0.55 ~ymax:0.55);
    ("25%", Popan_geom.Box.make ~xmin:0.25 ~ymin:0.25 ~xmax:0.75 ~ymax:0.75);
    ( "90%",
      Popan_geom.Box.make ~xmin:0.0253 ~ymin:0.0253 ~xmax:0.974 ~ymax:0.974 )
  ]

let bench_count_pruned (sel, box) =
  Test.make
    ~name:(Printf.sprintf "query:count-in-box pruned sel=%s n=65536" sel)
    (Staged.stage (fun () ->
         Sys.opaque_identity (Pr_arena.count_in_box query_arena_64k box)))

(* The range twin at one mid selectivity: the pruned kernel drains
   contained subtrees chain-by-chain instead of filtering every
   point. Same answer list, element for element. *)
(* The telemetry primitives priced alone: a raw sketch record (one log,
   one increment), a registry-sharded sketch record (adds the flag check
   and shard lookup), a flight-ring record (five scalar writes), and a
   full event emit (mutex + JSON render + ring; events are rare by
   contract, so ns-scale cost is fine — this row keeps that honest). *)
let bench_sketch_record =
  let s = Sketch.create () in
  Test.make ~name:"obs:sketch record x1024"
    (Staged.stage (fun () ->
         for i = 1 to 1024 do
           Sketch.record s (float_of_int i *. 1.7e-5)
         done;
         Sys.opaque_identity (Sketch.count s)))

let bench_registry_sketch_record =
  let sk = Metrics.sketch ~stable:false "bench.sketch" in
  Test.make ~name:"obs:registry sketch record x1024"
    (Staged.stage (fun () ->
         Metrics.set_enabled true;
         for i = 1 to 1024 do
           Metrics.record_sketch sk (float_of_int i *. 1.7e-5)
         done;
         Metrics.set_enabled false;
         Sys.opaque_identity ()))

let bench_flight_record =
  Test.make ~name:"obs:flight record x1024"
    (Staged.stage (fun () ->
         Flight.enable ();
         for i = 1 to 1024 do
           Flight.record ~ts:0.0 ~kind:(i land 3) ~epoch:0 ~latency:1.7e-5 ~visited:i
             ~note:""
         done;
         Flight.disable ();
         Sys.opaque_identity ()))

let bench_event_emit =
  Test.make ~name:"obs:event emit x64"
    (Staged.stage (fun () ->
         for i = 1 to 64 do
           Event.emit ~level:Event.Debug "bench.event" [ ("i", Event.Int i) ]
         done;
         Sys.opaque_identity (Event.count ())))

(* The overhead bar itself is judged on a paired measurement, not on
   two independent bechamel fits: on a time-slicing single-core box the
   pool rows are bimodal (domain handoff timing), so obs-off and obs-on
   batches run interleaved and each side keeps its best wall clock —
   the same discipline as the hand-timed 2^22 rows. Appended to the
   estimates, so the JSON trajectory carries the honest pair. *)
let telemetry_paired_rows () =
  Popan_parallel.Pool.with_pool ~jobs:1 (fun pool ->
    let batch () =
      ignore
        (Sys.opaque_identity
           (Server.run_batch ~epoch:0 pool serve_arena serve_queries))
    in
    let time_once f =
      let t0 = Unix.gettimeofday () in
      f ();
      Unix.gettimeofday () -. t0
    in
    (* Called before the bechamel suite runs (see main): minutes of
       full-load benching first would inflate both sides with heap bloat
       and thermal/cgroup throttling and amplify the delta. Compact
       anyway so the module-init workloads above don't linger. *)
    Gc.compact ();
    let off = ref infinity and on = ref infinity in
    (* 101 interleaved rounds: the overhead ratio is a difference of two
       ~3ms measurements on a box whose host-level contention bursts can
       inflate any single round by 30%. Contention is strictly additive,
       so best-of-N converges on the uncontended time for both sides as
       N grows — and 101 rounds still cost under a second. *)
    for _ = 1 to 101 do
      let t = time_once batch in
      if t < !off then off := t;
      Metrics.set_enabled true;
      Flight.enable ();
      let t =
        Fun.protect
          ~finally:(fun () ->
            Metrics.set_enabled false;
            Flight.disable ())
          (fun () -> time_once batch)
      in
      if t < !on then on := t
    done;
    [ ( "popan/serve:telemetry paired obs-off batch 1024 n=16384 j=1",
        Some (!off *. 1e9), None );
      ( "popan/serve:telemetry paired obs-on batch 1024 n=16384 j=1",
        Some (!on *. 1e9), None ) ])

let all_benches =
  Test.make_grouped ~name:"popan"
    [
      bench_table1; bench_table2; bench_table3; bench_table4_fig2;
      bench_table5_fig3; bench_solver_power; bench_solver_newton;
      bench_mc_transform; bench_ext_hash; bench_excell; bench_mx_cif;
      bench_nearest_seq;
      bench_incremental_build; bench_bulk_build;
      bench_arena_build; bench_arena_bulk_build; bench_arena_build_freeze;
      bench_arena_build_16k;
      bench_arena_bulk_build_16k;
      bench_radix_array_64k; bench_radix_big_64k;
      bench_pr5_path_bulk_64k; bench_arena_bulk_build_64k;
      bench_arena_bulk_jobs 1; bench_arena_bulk_jobs 4;
      bench_persistent_snapshot;
      bench_sweep_jobs 1; bench_sweep_jobs 2; bench_sweep_jobs 4;
      bench_mc_transform_jobs 1; bench_mc_transform_jobs 4;
      bench_sweep_uncached; bench_sweep_cold; bench_sweep_warm;
      bench_incr_uncached; bench_incr_cold; bench_incr_warm;
      bench_incr_resume;
      bench_obs_sweep `Off "obs-off";
      bench_obs_sweep `Metrics_only "obs-metrics";
      bench_obs_sweep `Trace "obs-full-trace";
      bench_obs_incr `Off "obs-off";
      bench_obs_incr `Metrics_only "obs-metrics";
      bench_obs_incr `Trace "obs-full-trace";
      bench_churn_insert_only; bench_churn_mixed;
      bench_serve_sequential;
      bench_serve_jobs 1; bench_serve_jobs 2; bench_serve_jobs 4;
      bench_serve_freeze_then_query;
      bench_serve_telemetry;
      bench_count_pruned (List.nth sel_boxes 0);
      bench_count_pruned (List.nth sel_boxes 1);
      bench_count_pruned (List.nth sel_boxes 2);
      bench_sketch_record; bench_registry_sketch_record;
      bench_flight_record; bench_event_emit;
    ]

let run_benchmarks () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg instances all_benches in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  let rows = List.sort (fun (a, _) (b, _) -> compare a b) rows in
  let estimates =
    List.map
      (fun (name, ols) ->
        let nanoseconds =
          match Analyze.OLS.estimates ols with
          | Some (t :: _) -> Some t
          | Some [] | None -> None
        in
        (name, nanoseconds, Analyze.OLS.r_square ols))
      rows
  in
  let body =
    List.map
      (fun (name, nanoseconds, r_square) ->
        let ns =
          match nanoseconds with
          | Some t -> Printf.sprintf "%.0f" t
          | None -> "-"
        in
        let r2 =
          match r_square with
          | Some r -> Printf.sprintf "%.4f" r
          | None -> "-"
        in
        [ name; ns; r2 ])
      estimates
  in
  Table.print
    (Table.make ~title:"micro-benchmarks (one kernel per table/figure)"
       ~header:[ "bench"; "ns/run"; "r^2" ]
       body);
  estimates

(* The headline ablation, stated in wall-clock terms: ns/run of the
   table4 sweep kernel at 1 vs 4 domains (bechamel's monotonic clock is
   wall time, so on a single-core machine the ratio honestly reports
   ~1x — domains can only time-slice one core). *)
let find_estimate estimates name =
  List.find_map
    (fun (n, ns, _) -> if n = "popan/" ^ name then ns else None)
    estimates

let print_parallel_summary estimates =
  let find = find_estimate estimates in
  match
    ( find "parallel:table4 sweep j=1",
      find (parallel_bench_name "parallel:table4 sweep j=%d" 4) )
  with
  | Some s1, Some s4 ->
    Printf.printf
      "\ntable4 sweep wall clock: j=1 %.2f ms/run, j=4 %.2f ms/run -> \
       %.2fx %s (machine has %d core%s)\n"
      (s1 /. 1e6) (s4 /. 1e6) (s1 /. s4)
      (if single_core then "ratio; time-slicing on one core, not speedup"
       else "speedup")
      (Popan_parallel.recommended_jobs ())
      (if Popan_parallel.recommended_jobs () = 1 then "" else "s")
  | _ -> ()

(* The arena ablation: the Morton bulk build against the persistent
   of_points_bulk this bench file has tracked from its first rows. *)
let print_arena_summary estimates =
  let find = find_estimate estimates in
  match
    ( find "ablation:bulk build m=8 n=1024",
      find "ablation:arena bulk build m=8 n=1024" )
  with
  | Some old_bulk, Some arena_bulk ->
    Printf.printf
      "morton bulk: persistent bulk %.1f us/run, arena bulk %.1f us/run -> \
       %.2fx\n"
      (old_bulk /. 1e3) (arena_bulk /. 1e3) (old_bulk /. arena_bulk)
  | _ -> ()

(* The 2^22-point rows. Bechamel's 0.5 s quota cannot fit multi-second
   kernels, so these are timed by hand — three runs each, best wall
   clock — and appended to the estimates under the same naming scheme,
   which lands them in the JSON trajectory like any other row.

   The kernel ablation reruns at this size on raw 42-bit codes
   ([sh0 = 0]): 4M words outgrow every cache level, which is where an
   int array and a Bigarray could plausibly diverge (the 64k rows fit
   in L2). There is no PR 5 packed row here at all — [(code lsl 21)
   lor slot] cannot represent slots past 2^21, which is precisely the
   cap this PR removed. *)

let n_big = 1 lsl 22

let time_best f =
  let best = ref infinity in
  for _ = 1 to 3 do
    let t0 = Unix.gettimeofday () in
    f ();
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then best := dt
  done;
  !best *. 1e9

let big_bulk_rows () =
  let build jobs () =
    (* Streamed, not a 4M-cons list: the build is the measurement, the
       generator is a fixed per-run Xoshiro stream. *)
    let rng = Xoshiro.of_int_seed 1987 in
    let t =
      Pr_arena.bulk_of_fn ?jobs ~capacity:8 ~n:n_big (fun _ ->
          Sampler.point rng Sampler.Uniform)
    in
    ignore (Sys.opaque_identity (Pr_arena.leaf_count t));
    Pr_arena.release t
  in
  let seq = time_best (build None) in
  let par = time_best (build (Some 4)) in
  let codes =
    let rng = Xoshiro.of_int_seed 6 in
    Array.init n_big (fun _ ->
        Popan_geom.Morton.encode (Sampler.point rng Sampler.Uniform))
  in
  let codes_big = bigarray_of_array codes in
  let cnt = Array.make 4 0 in
  let arr =
    let work = Array.copy codes and scratch = Array.copy codes in
    time_best (fun () ->
        Array.blit codes 0 work 0 n_big;
        let leaves = ref 0 in
        radix_array work scratch cnt 0 n_big 0 0 leaves;
        ignore (Sys.opaque_identity !leaves))
  in
  let big =
    let work = bigarray_of_array codes
    and scratch = bigarray_of_array codes in
    time_best (fun () ->
        Bigarray.Array1.blit codes_big work;
        let leaves = ref 0 in
        radix_big work scratch cnt 0 n_big 0 0 leaves;
        ignore (Sys.opaque_identity !leaves))
  in
  [ ( "popan/" ^ parallel_bench_name "bulk:arena bulk build m=8 n=4194304 j=%d" 1,
      Some seq, None );
    ( "popan/" ^ parallel_bench_name "bulk:arena bulk build m=8 n=4194304 j=%d" 4,
      Some par, None );
    ("popan/ablation:radix kernel int-array n=4194304", Some arr, None);
    ("popan/ablation:radix kernel bigarray n=4194304", Some big, None) ]

(* The PR 6 headline: the Bigarray columns must not cost the bulk path
   anything — the acceptance bar says the Bigarray radix kernel stays
   within 10% of the PR 5 packed-array kernel at n=2^16 — and the
   parallel build's wall clock at 2^22, honestly caveated on one
   core. *)
let print_bulk_summary estimates =
  let find = find_estimate estimates in
  (match
     ( find "ablation:PR5-path bulk build (heap arrays) m=8 n=65536",
       find "ablation:arena bulk build m=8 n=65536" )
   with
  | Some pr5, Some arena ->
    Printf.printf
      "bulk build n=65536: PR5 path (heap arrays) %.2f ms/run, bigarray \
       arena %.2f ms/run -> %+.1f%% (bar: within +10%%)\n"
      (pr5 /. 1e6) (arena /. 1e6)
      (100.0 *. ((arena /. pr5) -. 1.0))
  | _ -> ());
  (match
     ( find "ablation:radix kernel int-array (PR5 packed) n=65536",
       find "ablation:radix kernel bigarray n=65536" )
   with
  | Some arr, Some big ->
    Printf.printf
      "radix kernel n=65536: packed int-array %.2f ms/run, bigarray %.2f \
       ms/run -> %+.1f%%\n"
      (arr /. 1e6) (big /. 1e6)
      (100.0 *. ((big /. arr) -. 1.0))
  | _ -> ());
  (match
     ( find "ablation:radix kernel int-array n=4194304",
       find "ablation:radix kernel bigarray n=4194304" )
   with
  | Some arr, Some big ->
    Printf.printf
      "radix kernel n=4194304 (raw codes; packed keys cannot reach this \
       size): int-array %.0f ms/run, bigarray %.0f ms/run -> %+.1f%%\n"
      (arr /. 1e6) (big /. 1e6)
      (100.0 *. ((big /. arr) -. 1.0))
  | _ -> ());
  match
    ( find (parallel_bench_name "bulk:arena bulk build m=8 n=4194304 j=%d" 1),
      find (parallel_bench_name "bulk:arena bulk build m=8 n=4194304 j=%d" 4) )
  with
  | Some s1, Some s4 ->
    Printf.printf
      "bulk build n=4194304: j=1 %.0f ms, j=4 %.0f ms -> %.2fx %s\n"
      (s1 /. 1e6) (s4 /. 1e6) (s1 /. s4)
      (if single_core then
         "ratio; time-slicing on one core, not speedup"
       else "speedup")
  | _ -> ()

(* The cache ablation, stated the same way: ns/run of the table4 sweep
   cold (compute + publish) vs warm (pure replay). *)
let print_cache_summary estimates =
  let find = find_estimate estimates in
  (match
     ( find "cache:table4 sweep cold (compute+publish)",
       find "cache:table4 sweep warm (replay)" )
   with
  | Some cold, Some warm ->
    Printf.printf
      "artifact cache: table4 sweep cold %.2f ms/run, warm %.2f ms/run -> \
       %.1fx replay speedup\n"
      (cold /. 1e6) (warm /. 1e6) (cold /. warm)
  | _ -> ());
  match
    ( find "cache:incremental sweep uncached",
      find "cache:incremental sweep cold (compute+checkpoints)" )
  with
  | Some plain, Some ckpt ->
    Printf.printf
      "checkpoint overhead: incremental sweep %.2f ms/run uncached, %.2f \
       ms/run with checkpoints (%.0f%%)\n"
      (plain /. 1e6) (ckpt /. 1e6)
      (100.0 *. ((ckpt /. plain) -. 1.0))
  | _ -> ()

(* The observability ablation, stated the same way: per-kernel overhead
   of metrics and of full tracing over the obs-off baseline. *)
let print_obs_summary estimates =
  let find = find_estimate estimates in
  let line kernel off metrics trace =
    match (find off, find metrics, find trace) with
    | Some off, Some metrics, Some trace ->
      Printf.printf
        "obs overhead (%s): off %.2f ms/run, metrics %+.1f%%, full trace \
         %+.1f%%\n"
        kernel (off /. 1e6)
        (100.0 *. ((metrics /. off) -. 1.0))
        (100.0 *. ((trace /. off) -. 1.0))
    | _ -> ()
  in
  line "table4 sweep" "obs:table4 sweep obs-off" "obs:table4 sweep obs-metrics"
    "obs:table4 sweep obs-full-trace";
  line "incremental sweep" "obs:incremental sweep obs-off"
    "obs:incremental sweep obs-metrics" "obs:incremental sweep obs-full-trace";
  (* [cache:table4 sweep uncached] and [obs:table4 sweep obs-off] run
     the identical kernel (no store, probes disabled), so their delta is
     the measurement noise floor the overhead rows should be read
     against. *)
  match
    (find "cache:table4 sweep uncached", find "obs:table4 sweep obs-off")
  with
  | Some plain, Some off ->
    Printf.printf
      "noise floor: two identical obs-off sweep benches differ by %+.1f%%\n"
      (100.0 *. ((off /. plain) -. 1.0))
  | _ -> ()


(* The footprint row of the churn ablation: slots the arena actually
   holds after the mixed stream (free-list reuse caps the arena at the
   population's high-water mark) against the slots a naive
   append-only arena would have burned (one per lifetime insert,
   deletes only tombstoning). Counted, not timed — appended to the
   estimates so the JSON trajectory carries both numbers. *)
let churn_footprint_rows () =
  let arena = Pr_arena.of_points_bulk ~capacity:8 churn_initial in
  let lifetime = ref (List.length churn_initial) in
  Array.iter
    (fun ev ->
      (match ev with
       | Workload.Churn.Insert _ | Workload.Churn.Update _ -> incr lifetime
       | Workload.Churn.Delete _ -> ());
      churn_apply arena ev)
    churn_events;
  [ ( "popan/churn:footprint slot-reuse high water (slots) ops=4096",
      Some (float_of_int (Pr_arena.slot_high_water arena)), None );
    ( "popan/churn:footprint naive append (lifetime inserts) ops=4096",
      Some (float_of_int !lifetime), None ) ]

(* The partial-match cost rows: nodes the count kernel visits on a
   full-height x-strip query (x specified, y unconstrained), averaged
   over 64 random strips, at two tree sizes 16x apart; the empirical
   exponent is the log-ratio of the two averages. A PR quadtree is a
   trie, so the exponent is 1/2 with a log-periodic factor; the row
   names keep the (sqrt 17 - 3) / 2 ~ 0.5616 of Curien-Joseph's point
   quadtree they were first set against. Counted, not timed — appended
   to the estimates so the JSON trajectory carries the measurement and
   the exponent (scaled x1000 to survive the JSON's one-decimal
   format). *)
let partial_match_visited n =
  let rng = Xoshiro.of_int_seed 12345 in
  let arena =
    Pr_arena.of_points_bulk ~capacity:8 (Sampler.points rng Sampler.Uniform n)
  in
  let strips = 64 in
  let total = ref 0 in
  let qrng = Xoshiro.of_int_seed 54321 in
  for _ = 1 to strips do
    let x = Xoshiro.float qrng in
    let strip =
      Popan_geom.Box.make ~xmin:x ~ymin:0.0
        ~xmax:(Float.min 1.0 (x +. 1e-9))
        ~ymax:1.0
    in
    total := !total + snd (Pr_arena.count_in_box_visited arena strip)
  done;
  float_of_int !total /. float_of_int strips

let partial_match_rows () =
  let n1 = 4_096 and n2 = 65_536 in
  let exponent v1 v2 =
    log (v2 /. v1) /. log (float_of_int n2 /. float_of_int n1)
  in
  let p1 = partial_match_visited n1 and p2 = partial_match_visited n2 in
  [ ( Printf.sprintf "serve:partial-match pruned visited nodes strip n=%d" n1,
      Some p1, None );
    ( Printf.sprintf "serve:partial-match pruned visited nodes strip n=%d" n2,
      Some p2, None );
    ( "serve:partial-match pruned empirical exponent x1000 (CJ 561.6)",
      Some (exponent p1 p2 *. 1000.0), None ) ]
  |> List.map (fun (name, v, r) -> ("popan/" ^ name, v, r))

(* The range row, hand-timed rather than bechamel'd: the kernel conses
   a ~16k-point result list per call, and under bechamel's allocation
   pressure the run-order GC debt swamps the traversal. A Gc.compact
   before each round and best-of-7 rounds measure the kernel, not the
   collector. *)
let range_paired_rows () =
  let box = List.assoc "25%" sel_boxes in
  let pruned = ref infinity in
  let inner = 20 in
  for _ = 1 to 7 do
    Gc.compact ();
    let t0 = Unix.gettimeofday () in
    for _ = 1 to inner do
      ignore (Sys.opaque_identity (Pr_arena.query_box query_arena_64k box))
    done;
    let t = (Unix.gettimeofday () -. t0) /. float_of_int inner in
    if t < !pruned then pruned := t
  done;
  [ ("popan/query:range pruned sel=25% n=65536", Some (!pruned *. 1e9), None) ]

(* The 2^22 count row at 90% selectivity, hand-timed like the bulk
   builds, best wall clock of 7 rounds. The count is microseconds, so
   it runs x64 per sample against clock granularity. The row names
   keep the "paired" of the pruned-against-unpruned ablation they come
   from, so the JSON trajectory stays comparable. *)
let query_paired_rows () =
  let rng = Xoshiro.of_int_seed 777 in
  let arena =
    Pr_arena.bulk_of_fn ~capacity:8 ~n:n_big (fun _ ->
        Sampler.point rng Sampler.Uniform)
  in
  let box = List.assoc "90%" sel_boxes in
  Gc.compact ();
  let pruned = ref infinity in
  let inner = 64 in
  for _ = 1 to 7 do
    let t0 = Unix.gettimeofday () in
    for _ = 1 to inner do
      ignore (Sys.opaque_identity (Pr_arena.count_in_box arena box))
    done;
    let t = (Unix.gettimeofday () -. t0) /. float_of_int inner in
    if t < !pruned then pruned := t
  done;
  Pr_arena.release arena;
  [ ( "popan/query:count-in-box paired pruned sel=90% n=4194304",
      Some (!pruned *. 1e9), None ) ]

(* The serving ablation, stated against the acceptance bar: the batch
   answered arena-native must beat freezing into the persistent tree
   and querying that; plus the pool scaling rows and the partial-match
   exponent against Curien-Joseph. *)
let print_serve_summary estimates =
  let find = find_estimate estimates in
  (match
     ( find
         (Printf.sprintf "serve:batch %d mixed arena-native seq n=%d"
            serve_batch serve_n),
       find
         (Printf.sprintf "serve:batch %d mixed freeze-then-query n=%d"
            serve_batch serve_n) )
   with
  | Some native, Some freeze ->
    Printf.printf
      "serve batch (%d mixed queries, n=%d): arena-native %.2f ms/run, \
       freeze-then-query %.2f ms/run -> %.2fx (bar: arena-native wins)\n"
      serve_batch serve_n (native /. 1e6) (freeze /. 1e6) (freeze /. native)
  | _ -> ());
  (match
     ( find
         (parallel_bench_name
            (format_of_string
               "serve:batch 1024 mixed arena-native n=16384 j=%d") 1),
       find
         (parallel_bench_name
            (format_of_string
               "serve:batch 1024 mixed arena-native n=16384 j=%d") 4) )
   with
  | Some s1, Some s4 ->
    Printf.printf
      "serve batch on the pool: j=1 %.2f ms/run, j=4 %.2f ms/run -> %.2fx %s\n"
      (s1 /. 1e6) (s4 /. 1e6) (s1 /. s4)
      (if single_core then "ratio; time-slicing on one core, not speedup"
       else "speedup")
  | _ -> ());
  match
    ( find "serve:partial-match pruned visited nodes strip n=4096",
      find "serve:partial-match pruned visited nodes strip n=65536",
      find "serve:partial-match pruned empirical exponent x1000 (CJ 561.6)" )
  with
  | Some v1, Some v2, Some e ->
    Printf.printf
      "partial match (x-strip): %.1f nodes at n=4096, %.1f at n=65536 -> \
       empirical exponent %.3f (PR trie: 1/2)\n"
      v1 v2 (e /. 1000.0)
  | _ -> ()

(* The serve telemetry ablation, stated against the acceptance bar: the
   same batch with the sketches and flight recorder live must sit
   within 10% of the obs-off row, and the per-record primitive costs
   are printed so a regression is attributable. *)
let print_telemetry_summary estimates =
  let find = find_estimate estimates in
  (match
     ( find "serve:telemetry paired obs-off batch 1024 n=16384 j=1",
       find "serve:telemetry paired obs-on batch 1024 n=16384 j=1" )
   with
  | Some off, Some on ->
    Printf.printf
      "serve telemetry (paired best-of): batch obs-off %.2f ms, full \
       telemetry %.2f ms -> %+.1f%% (bar: within +10%%)\n"
      (off /. 1e6) (on /. 1e6)
      (100.0 *. ((on /. off) -. 1.0))
  | _ -> ());
  match
    ( find "obs:sketch record x1024",
      find "obs:registry sketch record x1024",
      find "obs:flight record x1024" )
  with
  | Some raw, Some reg, Some flight ->
    Printf.printf
      "telemetry primitives: sketch record %.0f ns, via registry %.0f ns, \
       flight record %.0f ns%s\n"
      (raw /. 1024.0) (reg /. 1024.0) (flight /. 1024.0)
      (match find "obs:event emit x64" with
      | Some e -> Printf.sprintf ", event emit %.0f ns" (e /. 64.0)
      | None -> "")
  | _ -> ()

(* The churn ablation, stated per-operation: a steady-state churn op
   against a pure insert at the same base, and the footprint ratio. *)
let print_churn_summary estimates =
  let find = find_estimate estimates in
  (match
     ( find "ablation:churn insert-only m=8 base=1024 ops=4096",
       find "ablation:churn mixed stream m=8 base=1024 ops=4096" )
   with
  | Some ins, Some mix ->
    Printf.printf
      "churn ops: insert-only %.0f ns/op, mixed insert/delete/update %.0f \
       ns/op -> %+.1f%% (both include the 1024-point base build)\n"
      (ins /. float_of_int churn_ops)
      (mix /. float_of_int churn_ops)
      (100.0 *. ((mix /. ins) -. 1.0))
  | _ -> ());
  match
    ( find "churn:footprint slot-reuse high water (slots) ops=4096",
      find "churn:footprint naive append (lifetime inserts) ops=4096" )
  with
  | Some reuse, Some naive ->
    Printf.printf
      "churn footprint: slot high water %.0f slots vs %.0f lifetime \
       inserts naive-append -> %.2fx smaller\n"
      reuse naive (naive /. reuse)
  | _ -> ()

(* Machine-readable perf trajectory: --json FILE (or BENCH_JSON=FILE)
   writes the ns/run estimates as one flat JSON object keyed by bench
   name, so successive PRs can diff the numbers mechanically. *)

let json_escape s =
  let buffer = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buffer "\\\""
      | '\\' -> Buffer.add_string buffer "\\\\"
      | '\n' -> Buffer.add_string buffer "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buffer (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buffer c)
    s;
  Buffer.contents buffer

let write_json path estimates =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\n";
      let entries =
        List.filter_map
          (fun (name, nanoseconds, _) ->
            Option.map
              (fun ns ->
                Printf.sprintf "  \"%s\": %.1f" (json_escape name) ns)
              nanoseconds)
          estimates
      in
      output_string oc (String.concat ",\n" entries);
      output_string oc "\n}\n");
  Printf.printf "wrote %s\n%!" path

let json_request () =
  let rec scan i =
    if i + 1 >= Array.length Sys.argv then None
    else if Sys.argv.(i) = "--json" then Some Sys.argv.(i + 1)
    else scan (i + 1)
  in
  match scan 1 with
  | Some _ as found -> found
  | None -> Sys.getenv_opt "BENCH_JSON"

(* Full regeneration with the paper's parameters. *)

let regenerate () =
  let points = 1000 and trials = 10 and seed = 1987 in
  let comparisons = Occupancy.table1 (Workload.make ~points ~trials ~seed ()) in
  Table.print (Render.table1 comparisons);
  Table.print (Render.table2 comparisons);
  let workload = Workload.make ~points ~trials ~seed () in
  Table.print (Render.table3 (Depth_profile.run workload));
  let sweep_clock = Sys.time () in
  let uniform = Sweep.run ~capacity:8 ~model:Sampler.Uniform ~trials ~seed () in
  let gaussian =
    Sweep.run ~capacity:8 ~model:(Sampler.Gaussian { sigma = 0.25 }) ~trials
      ~seed ()
  in
  let sweep_seconds = Sys.time () -. sweep_clock in
  Table.print
    (Render.sweep_table
       ~title:"Table 4: variation of occupancy with tree size (uniform)"
       ~paper:Paper_data.table4 uniform);
  print_string
    (Render.sweep_figure
       ~title:"Figure 2: occupancy vs number of points (uniform)"
       ~paper:Paper_data.table4 uniform);
  print_newline ();
  Table.print
    (Render.sweep_table
       ~title:"Table 5: variation of occupancy with tree size (Gaussian)"
       ~paper:Paper_data.table5 gaussian);
  print_string
    (Render.sweep_figure
       ~title:"Figure 3: occupancy vs number of points (Gaussian)"
       ~paper:Paper_data.table5 gaussian);
  print_newline ();
  Table.print
    (Render.branching_table (Ext.branching_study ~points ~trials ~seed ()));
  Table.print (Render.pmr_table (Ext.pmr_study ~seed ~threshold:4 ()));
  Table.print
    (Render.hash_table
       ~title:
         "Extension: extendible hashing utilization (oscillates around ln 2 = 0.693)"
       (Ext.ext_hash_sweep ~trials ~seed ()));
  Table.print
    (Render.hash_table ~title:"Extension: grid file utilization"
       (Ext.grid_file_sweep ~trials:3 ~seed ()));
  Table.print
    (Render.hash_table
       ~title:"Extension: EXCELL utilization (regular decomposition)"
       (Ext.excell_sweep ~trials:3 ~seed ()));
  Table.print
    (Render.hash_model_table
       (Ext.hash_model_study ~trials:5 ~seed ~bucket_size:8 ()));
  Table.print
    (Render.trajectory_table
       ~title:"Extension: the sequence d_n vs the fixed point e (uniform data)"
       (Trajectory.run ~capacity:8 ~model:Sampler.Uniform ~trials ~seed ()));
  Table.print (Render.solver_table (Ext.solver_study ()));
  Table.print (Render.aging_table (Ext.aging_study ~points ~trials ~seed ()));
  Printf.printf "Table 4/5 sweep regeneration: %.4f s cpu\n" sweep_seconds

let () =
  let paired = telemetry_paired_rows () in
  Printf.printf "== popan bench: micro-benchmarks ==\n\n%!";
  let estimates = run_benchmarks () in
  Printf.printf
    "\ntiming 2^22-point bulk builds (outside bechamel: multi-second \
     kernels)...\n%!";
  let estimates =
    estimates @ big_bulk_rows () @ churn_footprint_rows ()
    @ partial_match_rows () @ range_paired_rows () @ query_paired_rows ()
    @ paired
  in
  print_parallel_summary estimates;
  print_arena_summary estimates;
  print_bulk_summary estimates;
  print_cache_summary estimates;
  print_obs_summary estimates;
  print_churn_summary estimates;
  print_serve_summary estimates;
  print_telemetry_summary estimates;
  Option.iter (fun path -> write_json path estimates) (json_request ());
  Printf.printf "\n== popan bench: full regeneration (paper parameters) ==\n\n%!";
  let clock = Sys.time () in
  regenerate ();
  Printf.printf "full regeneration: %.4f s cpu\n%!" (Sys.time () -. clock)
