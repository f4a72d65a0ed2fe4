(* End-to-end smoke for the churn engine, run by `make check` (not part
   of the alcotest suites: one million-operation stream, not a
   property).

   Three claims, at a scale the qcheck differential suite cannot reach:

   - delete ≡ rebuild: after a 10^6-operation insert/delete/update
     stream the frozen arena must equal a fresh bulk build of the
     surviving points — the eager-merge canonicality contract, end to
     end. The decomposition is canonical but the order of points
     within a leaf is not (a merge concatenates child chains; a build
     follows input order), so the comparison is [equal_structure]
     (leaf contents as multisets) plus byte identity of two rebuilds
     fed identically sorted survivor lists, one from the arena and one
     from the generator;
   - replay ≡ churn: a snapshot of the start arena that replays each
     256-op slice of the stream after the arena has applied it, as the
     serving layer's spare catches up with the current epoch, must end
     state-identical to the churned arena ([Pr_arena.diff_state]: every
     column entry, counter and free-list head) and freeze to its bytes;
   - parallel identity: fanning churn trials across the domain pool at
     jobs 1, 2 and 4 must produce byte-identical frozen arenas — the
     per-trial streams are pre-split, so the schedule cannot leak in.

   Exit status 0 on success; failures print a diagnosis and exit 1. *)

module Pr_arena = Popan_trees.Pr_arena
module Workload = Popan_experiments.Workload
module Xoshiro = Popan_rng.Xoshiro
module Codec = Popan_store.Codec
module Metrics = Popan_obs.Metrics
module Probe = Popan_obs.Probe
module Point = Popan_geom.Point

let default_ops = 1_000_000
let capacity = 8

let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt

let apply arena = function
  | Workload.Churn.Insert p -> Pr_arena.insert arena p
  | Workload.Churn.Delete p ->
    if not (Pr_arena.delete arena p) then
      fail "churn_smoke: delete missed a live point"
  | Workload.Churn.Update (p, q) ->
    if not (Pr_arena.update arena p q) then
      fail "churn_smoke: update missed a live point"

(* The stream over a bulk build of the start population, drawn in
   [slice_ops]-op slices. With [~replay], a snapshot of the start arena
   replays each slice once the arena has applied it. *)
let slice_ops = 256

let drive ?(replay = false) (spec : Workload.Churn.spec) rng =
  let st = Workload.Churn.start spec ~rng in
  let arena =
    Pr_arena.of_points_bulk ~capacity
      (Array.to_list (Workload.Churn.live st))
  in
  let twin = if replay then Some (Pr_arena.snapshot arena) else None in
  let slice = Array.make slice_ops (Workload.Churn.Insert (Point.make 0.5 0.5)) in
  let left = ref spec.Workload.Churn.ops in
  while !left > 0 do
    let n = min slice_ops !left in
    for i = 0 to n - 1 do
      let e = Workload.Churn.step spec st in
      apply arena e;
      slice.(i) <- e
    done;
    Option.iter (fun t -> Array.iter (apply t) (Array.sub slice 0 n)) twin;
    left := !left - n
  done;
  (st, arena, twin)

let bytes arena = Codec.encode Codec.pr_quadtree (Pr_arena.freeze arena)

let () =
  let ops =
    if Array.length Sys.argv > 1 then
      match int_of_string_opt Sys.argv.(1) with
      | Some n when n > 0 -> n
      | _ -> fail "churn_smoke: bad op count %S" Sys.argv.(1)
    else default_ops
  in
  Probe.set_level `Metrics_only;
  let deletes = Metrics.counter "arena.deletes" in
  let merges = Metrics.counter "arena.merges" in
  (* The oracle stream: heavy on everything — a third of the operations
     move a live point, the rest split evenly between insert and
     delete, over an initial population big enough that merges fire
     deep in the tree. *)
  let spec =
    Workload.Churn.make ~points:50_000 ~trials:4 ~seed:1987 ~ops
      ~insert_fraction:0.5 ~update_fraction:(1.0 /. 3.0) ~drift_sigma:0.01 ()
  in
  let rngs = Workload.Churn.map_trials spec ~f:(fun _ rng -> rng) in
  let st, arena, twin = drive ~replay:true spec (List.hd rngs) in
  let violations = Pr_arena.check_invariants arena in
  if violations <> [] then
    fail "churn_smoke: invariant violations after %d ops:\n  %s" ops
      (String.concat "\n  " violations);
  if Pr_arena.size arena <> Workload.Churn.live_count st then
    fail "churn_smoke: arena holds %d points, generator says %d live"
      (Pr_arena.size arena) (Workload.Churn.live_count st);
  let survivors = Array.to_list (Workload.Churn.live st) in
  let rebuild = Pr_arena.of_points_bulk ~capacity survivors in
  if
    not
      (Popan_trees.Pr_quadtree.equal_structure (Pr_arena.freeze arena)
         (Pr_arena.freeze rebuild))
  then
    fail
      "churn_smoke: after %d ops the churned arena differs from a fresh \
       build of the %d survivors — delete is not rebuild"
      ops (Workload.Churn.live_count st);
  let sorted_build pts =
    bytes (Pr_arena.of_points_bulk ~capacity (List.sort compare pts))
  in
  if not (String.equal (sorted_build (Pr_arena.points arena))
            (sorted_build survivors)) then
    fail
      "churn_smoke: the arena's stored points and the generator's live \
       multiset rebuild differently — contents diverged";
  Printf.printf
    "churn oracle: %d ops over %d initial points (%d deletes, %d merges, \
     the replay's included), frozen arena equals a rebuild of %d survivors\n"
    ops 50_000
    (Metrics.counter_value deletes)
    (Metrics.counter_value merges)
    (Workload.Churn.live_count st);
  let twin = Option.get twin in
  (match Pr_arena.diff_state arena twin with
  | [] -> ()
  | diff ->
    fail
      "churn_smoke: a snapshot replaying the %d ops in %d-op slices differs \
       from the churned arena:\n  %s"
      ops slice_ops (String.concat "\n  " diff));
  if not (String.equal (bytes twin) (bytes arena)) then
    fail "churn_smoke: the replayed snapshot freezes to different bytes";
  Printf.printf
    "replay smoke: a snapshot of the start arena, replaying the %d ops in \
     %d-op slices, equals the churned arena entry for entry and freezes to \
     its bytes\n"
    ops slice_ops;
  (* Parallel identity: shorter streams, every trial, three job
     counts. *)
  let par_spec =
    Workload.Churn.make ~points:20_000 ~trials:4 ~seed:1987
      ~ops:(max 1 (ops / 8)) ~insert_fraction:0.5
      ~update_fraction:(1.0 /. 3.0) ~drift_sigma:0.01 ()
  in
  let run jobs =
    String.concat ""
      (Workload.Churn.map_trials ~jobs par_spec ~f:(fun _ rng ->
           let _, arena, _ = drive par_spec rng in
           bytes arena))
  in
  let reference = run 1 in
  List.iter
    (fun jobs ->
      if not (String.equal (run jobs) reference) then
        fail "churn_smoke: jobs %d trial set differs from jobs 1" jobs)
    [ 2; 4 ];
  Printf.printf
    "parallel-identity smoke: %d churn trials byte-identical at jobs 1, 2 \
     and 4 (%d artifact bytes)\n"
    4 (String.length reference)
