(* End-to-end smoke for the bulk build, run by `make check` (not part
   of the alcotest suites: a few large builds, not a property).

   One stage, at n = 2^22 uniform points under max_depth 42, of which
   every 1,024th sits in one cell at depth 37, spread over its 2^-42
   grid with repeats. Those split past depth 36, so the build reloads
   its keys at levels 15 and 30, sorts in the last, zero-padded key
   window, and leaves over-full leaves at depth 42.

   - heap in-place build: completes with no fallback of any kind
     (counted via the metrics registry: zero [arena.fallbacks]),
     reaches below depth 36 and passes the full arena invariant check;
   - mmap-backed in-place build of the same points: equal to the heap
     build in every stored entry ([diff_state]: node ids, chains,
     columns and counters), since both run the one sort kernel;
   - Z-ordered build of the same points: Z-ordered, passes the
     invariant check, and freezes to the in-place build's bytes — the
     encoded artifact bytes, the strictest equality the repo can state.

   An argument replaces n. Exit status 0 on success; failures print a
   diagnosis and exit 1. *)

module Pr_arena = Popan_trees.Pr_arena
module Xoshiro = Popan_rng.Xoshiro
module Sampler = Popan_rng.Sampler
module Codec = Popan_store.Codec
module Metrics = Popan_obs.Metrics
module Probe = Popan_obs.Probe

let default_n = 1 lsl 22
let max_depth = 42

let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt

let () =
  let n =
    if Array.length Sys.argv > 1 then
      match int_of_string_opt Sys.argv.(1) with
      | Some n when n > 0 -> n
      | _ -> fail "bulk_smoke: bad point count %S" Sys.argv.(1)
    else default_n
  in
  (* Metrics on, so the fallback counter actually counts. *)
  Probe.set_level `Metrics_only;
  let fallbacks = Metrics.counter "arena.fallbacks" in
  let no_fallback what =
    if Metrics.counter_value fallbacks <> 0 then
      fail "bulk_smoke: %d arena fallback(s) during the %s"
        (Metrics.counter_value fallbacks) what
  in
  let invariants what t =
    match Pr_arena.check_invariants t with
    | [] -> ()
    | violations ->
      fail "bulk_smoke: %s invariant violations:\n  %s" what
        (String.concat "\n  " violations)
  in
  let bytes t = Codec.encode Codec.pr_quadtree (Pr_arena.freeze t) in
  let column () = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n in
  let xs = column () and ys = column () in
  (let rng = Xoshiro.of_int_seed 1987 in
   (* The deep cell's corner, on the depth-37 grid. *)
   let corner = ldexp (Float.floor (ldexp 0.6 37)) (-37) in
   let deep () = corner +. ldexp (float_of_int (Xoshiro.int rng 32)) (-42) in
   for i = 0 to n - 1 do
     if i land 1023 = 0 then begin
       xs.{i} <- deep ();
       ys.{i} <- deep ()
     end
     else begin
       let p = Sampler.point rng Sampler.Uniform in
       xs.{i} <- p.Popan_geom.Point.x;
       ys.{i} <- p.Popan_geom.Point.y
     end
   done);
  let in_place ?backing () =
    Pr_arena.bulk_of_columns ?backing ~max_depth ~capacity:8 ~n (fun a b ->
        for i = 0 to n - 1 do
          a.{i} <- xs.{i};
          b.{i} <- ys.{i}
        done)
  in
  (* The in-place builds stay alive only in this scope, so the
     Z-ordered build below holds one arena at a time. *)
  let reference =
    let heap = in_place () in
    if Pr_arena.size heap <> n then
      fail "bulk_smoke: built %d points, expected %d" (Pr_arena.size heap) n;
    no_fallback "heap build";
    if Pr_arena.height heap <= 36 then
      fail "bulk_smoke: height %d, the deep cell did not split below depth 36"
        (Pr_arena.height heap);
    invariants "heap build" heap;
    Printf.printf
      "large-n smoke: n=%d bulk build completed, no fallback (height %d, %d \
       leaves, invariants hold)\n"
      n (Pr_arena.height heap) (Pr_arena.leaf_count heap);
    let dir = Filename.concat (Filename.get_temp_dir_name ()) "popan-bulk-smoke" in
    let mapped = in_place ~backing:(Pr_arena.Mmap { dir }) () in
    if Pr_arena.backing mapped = Pr_arena.Heap then
      fail "bulk_smoke: the mmap-backed build fell back to the heap";
    no_fallback "mmap-backed build";
    (match Pr_arena.diff_state heap mapped with
    | [] -> ()
    | problems ->
      fail "bulk_smoke: the mmap-backed arena differs from the heap build:\n  %s"
        (String.concat "\n  " problems));
    Pr_arena.release mapped;
    Printf.printf
      "mmap smoke: n=%d mmap-backed build equals the heap build entry for \
       entry\n"
      n;
    bytes heap
  in
  Gc.full_major ();
  let z = Pr_arena.bulk_zordered ~max_depth ~capacity:8 ~n xs ys in
  if not (Pr_arena.is_zordered z) then
    fail "bulk_smoke: the Z-ordered build's slots are not in Z order";
  invariants "Z-ordered build" z;
  if not (String.equal (bytes z) reference) then
    fail "bulk_smoke: the Z-ordered build freezes to other bytes than the \
          in-place build";
  no_fallback "Z-ordered build";
  Printf.printf
    "Z-ordered smoke: n=%d build is Z-ordered, invariants hold, frozen \
     bytes equal the in-place build's\n"
    n
