(* End-to-end smoke for the parallel out-of-core bulk path, run by
   `make check` (not part of the alcotest suites: one large build, not
   a property).

   Two claims, checked at a size that actually exercises the machinery
   (n = 2^22, two orders of magnitude past the old 2^21 packed-key
   cap):

   - parallel identity: the arena built with jobs 1 and jobs 4 must be
     byte-identical to the sequential build — compared on the encoded
     artifact bytes of the frozen trees, the strictest equality the
     repo can state;
   - large-n completion: the build must finish on the bulk path with no
     fallback of any kind (counted via the metrics registry: zero
     [arena.fallbacks]) and pass the full arena invariant check.

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
  let bytes t = Codec.encode Codec.pr_quadtree (Pr_arena.freeze t) in
  let reference = bytes seq in
  List.iter
    (fun jobs ->
      let b = bytes (build (Some jobs)) in
      if not (String.equal b reference) then
        fail
          "bulk_smoke: jobs %d arena differs from the sequential build \
           (%d vs %d artifact bytes)"
          jobs (String.length b) (String.length reference);
      if Metrics.counter_value fallbacks <> 0 then
        fail "bulk_smoke: fallback during the jobs %d build" jobs)
    [ 1; 4 ];
  Printf.printf
    "parallel-identity smoke: n=%d frozen arenas byte-identical at jobs 1 \
     and 4 (%d artifact bytes)\n"
    n (String.length reference)
