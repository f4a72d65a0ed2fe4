(* End-to-end smoke for the bulk build, run by `make check` (not part
   of the alcotest suites: a few large builds, not a property).

   Three claims, checked at a size that actually exercises the
   machinery (n = 2^22, past the 2^21 - 1 points of the packed kernel's
   slot field, so every build here sorts with the two-column kernel on
   the heap):

   - parallel identity: the arenas built with jobs 1 and jobs 4 must
     equal the sequential build in every stored entry ([diff_state]:
     node ids, chains, columns and counters), which implies equal
     frozen trees;
   - large-n completion: the build must finish on the bulk path with no
     fallback of any kind (counted via the metrics registry: zero
     [arena.fallbacks]) and pass the full arena invariant check;
   - the Z-ordered build of the same points must be Z-ordered, pass the
     invariant check, and freeze to the in-place build's bytes — the
     encoded artifact bytes, the strictest equality the repo can
     state.

   Exit status 0 on success; failures print a diagnosis and exit 1. *)

module Pr_arena = Popan_trees.Pr_arena
module Xoshiro = Popan_rng.Xoshiro
module Sampler = Popan_rng.Sampler
module Codec = Popan_store.Codec
module Metrics = Popan_obs.Metrics
module Probe = Popan_obs.Probe

let default_n = 1 lsl 22

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
  let build jobs =
    (* One fresh stream per build: every build must see the identical
       draw sequence for the byte comparison to mean anything. *)
    let rng = Xoshiro.of_int_seed 1987 in
    let t =
      Pr_arena.bulk_of_fn ?jobs ~capacity:8 ~n (fun _ ->
          Sampler.point rng Sampler.Uniform)
    in
    if Pr_arena.size t <> n then
      fail "bulk_smoke: built %d points, expected %d" (Pr_arena.size t) n;
    t
  in
  let bytes t = Codec.encode Codec.pr_quadtree (Pr_arena.freeze t) in
  (* The sequential build stays alive only in this scope, so the
     Z-ordered stage below holds one arena at a time. *)
  let reference =
    let seq = build None in
    let violations = Pr_arena.check_invariants seq in
    if violations <> [] then
      fail "bulk_smoke: invariant violations:\n  %s"
        (String.concat "\n  " violations);
    if Metrics.counter_value fallbacks <> 0 then
      fail "bulk_smoke: %d arena fallback(s) during the sequential build"
        (Metrics.counter_value fallbacks);
    Printf.printf
      "large-n smoke: n=%d bulk build completed, no fallback (height %d, %d \
       leaves, invariants hold)\n"
      n (Pr_arena.height seq) (Pr_arena.leaf_count seq);
    List.iter
      (fun jobs ->
        let par = build (Some jobs) in
        (match Pr_arena.diff_state seq par with
        | [] -> ()
        | problems ->
          fail
            "bulk_smoke: jobs %d arena differs from the sequential build:\n  %s"
            jobs (String.concat "\n  " problems));
        if Metrics.counter_value fallbacks <> 0 then
          fail "bulk_smoke: fallback during the jobs %d build" jobs)
      [ 1; 4 ];
    Printf.printf
      "parallel-identity smoke: n=%d arenas at jobs 1 and 4 equal the \
       sequential build entry for entry\n"
      n;
    Gc.full_major ();
    bytes seq
  in
  Gc.full_major ();
  let column () = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n in
  let xs = column () and ys = column () in
  let rng = Xoshiro.of_int_seed 1987 in
  for i = 0 to n - 1 do
    let p = Sampler.point rng Sampler.Uniform in
    xs.{i} <- p.Popan_geom.Point.x;
    ys.{i} <- p.Popan_geom.Point.y
  done;
  let z = Pr_arena.bulk_zordered ~capacity:8 ~n xs ys in
  if not (Pr_arena.is_zordered z) then
    fail "bulk_smoke: the Z-ordered build's slots are not in Z order";
  let violations = Pr_arena.check_invariants z in
  if violations <> [] then
    fail "bulk_smoke: Z-ordered invariant violations:\n  %s"
      (String.concat "\n  " violations);
  if not (String.equal (bytes z) reference) then
    fail "bulk_smoke: the Z-ordered build freezes to other bytes than the \
          in-place build";
  if Metrics.counter_value fallbacks <> 0 then
    fail "bulk_smoke: fallback during the Z-ordered build";
  Printf.printf
    "Z-ordered smoke: n=%d build is Z-ordered, invariants hold, frozen \
     bytes equal the in-place build's\n"
    n
