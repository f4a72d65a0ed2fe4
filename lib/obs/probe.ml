(* Seconds-scale log buckets for the timing histograms: 1us .. 10s. *)
let seconds_bounds =
  [| 1e-6; 1e-5; 1e-4; 1e-3; 1e-2; 0.1; 1.0; 10.0 |]

let level () =
  if Trace.enabled () then "trace"
  else if Metrics.enabled () then "metrics"
  else "off"

let set_level = function
  | `Off ->
    Trace.disable ();
    Metrics.set_enabled false
  | `Metrics_only ->
    Trace.disable ();
    Metrics.set_enabled true
  | `Trace ->
    Metrics.set_enabled true;
    Trace.enable ()

(* A timed section: span (when tracing) + seconds histogram (when the
   registry is on). Exception-safe; near-free when everything is off. *)
let timed ~span ~args histogram f =
  let record = Metrics.enabled () in
  let body () =
    if not record then f ()
    else begin
      let start = Unix.gettimeofday () in
      Fun.protect
        ~finally:(fun () ->
          Metrics.observe histogram (Unix.gettimeofday () -. start))
        f
    end
  in
  if Trace.enabled () then Trace.with_span ~args span body else body ()

(* Solvers *)

let solver_power_calls = Metrics.counter "solver.power.calls"
let solver_newton_calls = Metrics.counter "solver.newton.calls"

let solver_iterations =
  Metrics.histogram "solver.iterations"
    ~bounds:[| 1.; 2.; 5.; 10.; 20.; 50.; 100.; 200.; 500.; 1000. |]

let solver_residual =
  Metrics.histogram "solver.residual"
    ~bounds:[| 1e-15; 1e-12; 1e-9; 1e-6; 1e-3; 1.0 |]

let solver_steps = Metrics.counter "solver.steps"
let solver_seconds = Metrics.histogram ~stable:false "solver.seconds" ~bounds:seconds_bounds

let solver ~name f =
  Metrics.incr
    (match name with
    | "newton" -> solver_newton_calls
    | _ -> solver_power_calls);
  timed ~span:("solve:" ^ name)
    ~args:[ ("solver", Trace.Str name) ]
    solver_seconds f

let solver_done ~name:_ ~iterations ~residual =
  Metrics.observe solver_iterations (float_of_int iterations);
  Metrics.observe solver_residual residual

let solver_step ~residual =
  Metrics.incr solver_steps;
  Trace.sample "solver.residual" residual

(* Monte-Carlo transform rows *)

let mc_rows = Metrics.counter "mc.rows"
let mc_row_seconds = Metrics.histogram ~stable:false "mc.row.seconds" ~bounds:seconds_bounds

let mc_row ~row f =
  Metrics.incr mc_rows;
  timed ~span:"mc:row" ~args:[ ("row", Trace.Int row) ] mc_row_seconds f

(* PR-quadtree builder *)

let builder_inserts = Metrics.counter "builder.inserts"
let builder_splits = Metrics.counter "builder.splits"

let builder_split_depth =
  Metrics.histogram "builder.split.depth"
    ~bounds:[| 1.; 2.; 4.; 6.; 8.; 12.; 16.; 24. |]

let builder_insert () = Metrics.incr builder_inserts

let builder_split ~depth =
  Metrics.incr builder_splits;
  (* Guarded here, not just inside [observe]: [float_of_int depth] boxes
     at this call site even when the registry ignores the value, and
     builds split often enough for that box to be the arena bulk path's
     only O(nodes) minor allocation. *)
  if Metrics.enabled () then
    Metrics.observe builder_split_depth (float_of_int depth)

(* Arena builds. The bulk path never calls [builder_insert] per point,
   so it bumps the same stable counter by its point count up front: the
   merged totals match the incremental path insert for insert, keeping
   the stable export independent of which build path ran where. *)

let arena_builds = Metrics.counter "arena.builds"
let arena_bulk_points = Metrics.counter "arena.bulk.points"

let arena_minor_words_per_insert =
  Metrics.gauge ~stable:false "arena.minor.words.per.insert"

let arena_build_seconds =
  Metrics.histogram ~stable:false "arena.build.seconds" ~bounds:seconds_bounds

let arena_build kind ~inserts f =
  (match kind with
  | `Bulk ->
    Metrics.add builder_inserts inserts;
    Metrics.add arena_bulk_points inserts
  | `Incremental -> ());
  if not (Metrics.enabled () || Trace.enabled ()) then f ()
  else begin
    Metrics.incr arena_builds;
    let before = Gc.minor_words () in
    timed
      ~span:(match kind with `Bulk -> "arena:bulk" | `Incremental -> "arena:build")
      ~args:[ ("n", Trace.Int inserts) ]
      arena_build_seconds f;
    if inserts > 0 then
      Metrics.set_gauge arena_minor_words_per_insert
        ((Gc.minor_words () -. before) /. float_of_int inserts)
  end

(* Pooled bulk builds: one count per build and per group sorted on the
   pool, and the mapped-bytes gauge for mmap-backed arenas. *)

let arena_parallel_builds = Metrics.counter "arena.parallel.builds"
let arena_parallel_tasks = Metrics.counter "arena.parallel.tasks"
let arena_bytes_mapped = Metrics.gauge ~stable:false "arena.bytes.mapped"

let arena_parallel ~tasks =
  Metrics.incr arena_parallel_builds;
  Metrics.add arena_parallel_tasks tasks

let arena_mapped_bytes ~bytes =
  Metrics.set_gauge arena_bytes_mapped (float_of_int bytes)

(* Churn: deletes and node merges on the arena. Both are bare counter
   bumps — the delete path shares insert's zero-allocation claim, so
   the disabled-probe cost must stay a single predicated increment. *)

let arena_deletes = Metrics.counter "arena.deletes"
let arena_merges = Metrics.counter "arena.merges"
let arena_delete () = Metrics.incr arena_deletes
let arena_merge () = Metrics.incr arena_merges

(* Build-path changes must be loud. Each named fallback bumps a counter
   and prints one stderr line per process — whatever the observability
   switches say — so a large-n run cannot quietly take a different build
   path than the one asked for. The historical instance (bulk builds
   past 2^21 points silently rerouting to incremental inserts) is gone
   with the two-word keys; the one that remains is an mmap request
   degrading to heap backing. *)

let arena_fallbacks = Metrics.counter ~stable:false "arena.fallbacks"
let warned : (string, unit) Hashtbl.t = Hashtbl.create 4
let warn_mutex = Mutex.create ()

(* Degrade warnings flow through the structured event log: one event
   per distinct key per process (the counter counts every fallback, the
   event fires once). {!Event} mirrors Warn-level events to stderr unless the
   mirror was switched off, preserving the old loud-by-default
   behavior while making the warning visible to tooling. *)
let warn_once key fields fmt =
  Printf.ksprintf
    (fun msg ->
      Mutex.lock warn_mutex;
      let fresh = not (Hashtbl.mem warned key) in
      if fresh then Hashtbl.add warned key ();
      Mutex.unlock warn_mutex;
      if fresh then
        Event.emit ~level:Event.Warn key
          (fields @ [ ("message", Event.Str msg) ]))
    fmt

let arena_fallback ~what ~detail =
  Metrics.incr arena_fallbacks;
  warn_once "arena.fallback"
    [ ("what", Event.Str what); ("detail", Event.Str detail) ]
    "%s (%s); build path differs from the one requested" what detail

(* The domain pool *)

let pool_maps = Metrics.counter "pool.maps"
let pool_tasks = Metrics.counter "pool.tasks"
let pool_tasks_run = Metrics.counter ~stable:false "pool.tasks.run"
let pool_jobs = Metrics.gauge ~stable:false "pool.jobs"
let pool_task_seconds = Metrics.histogram ~stable:false "pool.task.seconds" ~bounds:seconds_bounds
let pool_batch_seconds = Metrics.histogram ~stable:false "pool.batch.seconds" ~bounds:seconds_bounds
let pool_reduce_seconds = Metrics.histogram ~stable:false "pool.reduce.seconds" ~bounds:seconds_bounds

let pool_map ~tasks ~jobs f =
  Metrics.incr pool_maps;
  Metrics.add pool_tasks tasks;
  Metrics.set_gauge pool_jobs (float_of_int jobs);
  timed ~span:"pool:batch"
    ~args:[ ("tasks", Trace.Int tasks); ("jobs", Trace.Int jobs) ]
    pool_batch_seconds f

let pool_task ~index f =
  if not (Metrics.enabled () || Trace.enabled ()) then f ()
  else begin
    Metrics.incr pool_tasks_run;
    timed ~span:"task" ~args:[ ("i", Trace.Int index) ] pool_task_seconds f
  end

let pool_reduce ~tasks f =
  timed ~span:"pool:reduce"
    ~args:[ ("tasks", Trace.Int tasks) ]
    pool_reduce_seconds f

(* The artifact store. Always-on: `popan cache stats` reports these
   whether or not metrics were requested, exactly as the store's old
   private atomics did. *)

let store_hits = Metrics.counter ~always:true "store.hits"
let store_misses = Metrics.counter ~always:true "store.misses"
let store_computes = Metrics.counter ~always:true "store.computes"
let store_puts = Metrics.counter ~always:true "store.puts"

let store_counts () =
  ( Metrics.counter_value store_hits,
    Metrics.counter_value store_misses,
    Metrics.counter_value store_computes,
    Metrics.counter_value store_puts )

let store_find_seconds = Metrics.histogram ~stable:false "store.find.seconds" ~bounds:seconds_bounds
let store_put_seconds = Metrics.histogram ~stable:false "store.put.seconds" ~bounds:seconds_bounds

let store_find ~kind f =
  let result =
    timed ~span:"store:find" ~args:[ ("kind", Trace.Str kind) ]
      store_find_seconds f
  in
  Metrics.incr (match result with Some _ -> store_hits | None -> store_misses);
  result

let store_put ~kind f =
  timed ~span:"store:put" ~args:[ ("kind", Trace.Str kind) ]
    store_put_seconds f;
  Metrics.incr store_puts

let store_compute () = Metrics.incr store_computes

(* GC telemetry. Gauges, so never part of the stable export: heap
   traffic depends on scheduling, warm-up and domain count. Sampled
   around experiment spans — the natural "how much did this run chew
   through" checkpoints. *)

let gc_minor_words = Metrics.gauge ~stable:false "gc.minor.words"
let gc_major_words = Metrics.gauge ~stable:false "gc.major.words"
let gc_minor_collections = Metrics.gauge ~stable:false "gc.minor.collections"
let gc_major_collections = Metrics.gauge ~stable:false "gc.major.collections"

let sample_gc () =
  if Metrics.enabled () then begin
    let s = Gc.quick_stat () in
    Metrics.set_gauge gc_minor_words s.Gc.minor_words;
    Metrics.set_gauge gc_major_words s.Gc.major_words;
    Metrics.set_gauge gc_minor_collections
      (float_of_int s.Gc.minor_collections);
    Metrics.set_gauge gc_major_collections
      (float_of_int s.Gc.major_collections)
  end

(* The serving layer. Admission metrics for the wire-protocol request
   loop: per-kernel query counters are stable (they count what was
   asked, independent of scheduling); batch timing, queue depth and
   epoch-lifecycle gauges are unstable per-schedule facts. *)

let serve_batches = Metrics.counter "serve.batches"
let serve_range_queries = Metrics.counter "serve.queries.range"
let serve_count_queries = Metrics.counter "serve.queries.count"
let serve_knn_queries = Metrics.counter "serve.queries.knn"
let serve_nearest_queries = Metrics.counter "serve.queries.nearest"
let serve_cell_queries = Metrics.counter "serve.queries.cell"
let serve_malformed_frames = Metrics.counter "serve.malformed.frames"

(* Subtrees answered wholesale by containment pruning in the
   instrumented range/count kernels — a pure function of tree shape and
   query, hence stable; bumped only on the telemetry path so the plain
   kernels keep their exact instruction stream. *)
let serve_pruned_subtrees_total = Metrics.counter "serve.pruned.subtrees"

(* One bump per query, not per event: a large-box count prunes dozens
   of subtrees, and a sharded-counter increment per event is the kind
   of per-node cost the instrumented kernels must not carry. *)
let serve_pruned_subtrees n =
  if n > 0 then Metrics.add serve_pruned_subtrees_total n
let serve_epochs_published = Metrics.counter "serve.epochs.published"
let serve_epochs_retired = Metrics.counter "serve.epochs.retired"

(* What publishing cost: column bytes copied into epoch arenas, and how
   many publishes copied every chunk (the boot epoch, a publish with no
   retired arena to refresh, one whose spare had to regrow). Stable:
   the pin/publish sequence, not the schedule, decides both. *)
let serve_publish_bytes = Metrics.counter "serve.publish.bytes"
let serve_publish_full = Metrics.counter "serve.publish.full"
let serve_queue_depth = Metrics.gauge ~stable:false "serve.queue.depth"
let serve_epoch_id = Metrics.gauge ~stable:false "serve.epoch.id"
let serve_epoch_age = Metrics.gauge ~stable:false "serve.epoch.age.batches"

(* Log-spaced bounds (three per decade, 1us .. 100s) instead of the
   coarse [seconds_bounds]: serve batches cluster within one decade, so
   decade-wide buckets flattened the latency story the histogram was
   supposed to tell. *)
let serve_batch_seconds =
  Metrics.histogram ~stable:false "serve.batch.seconds"
    ~bounds:(Metrics.log_bounds ~per_decade:3 ~lo:1e-6 ~hi:100.0)

let serve_kernel_code = function
  | `Range -> 0
  | `Count -> 1
  | `Knn -> 2
  | `Nearest -> 3
  | `Cell -> 4

let serve_kernel_name = function
  | 0 -> "range"
  | 1 -> "count"
  | 2 -> "knn"
  | 3 -> "nearest"
  | 4 -> "cell"
  | _ -> "unknown"

(* Per-kind distributions. Latency sketches record wall-clock seconds
   (schedule-dependent, so unstable); visited-node sketches record the
   exact node count a query kernel touched — a pure function of tree
   shape and query, so their stable exports are byte-identical at any
   job count. Visited counts are small integers, so the sketch range
   starts at 1 with no relative-error waste on sub-unit values. *)
let serve_latency_sketches =
  Array.init 5 (fun k ->
      Metrics.sketch ~stable:false
        ("serve.latency." ^ serve_kernel_name k))

let serve_visited_sketches =
  Array.init 5 (fun k ->
      Metrics.sketch ~min_value:1.0 ~max_value:1e9
        ("serve.visited." ^ serve_kernel_name k))

let serve_query ~kernel =
  Metrics.incr
    (match kernel with
    | `Range -> serve_range_queries
    | `Count -> serve_count_queries
    | `Knn -> serve_knn_queries
    | `Nearest -> serve_nearest_queries
    | `Cell -> serve_cell_queries)

(* One switch for the batch loop: when neither the flight recorder nor
   the registry wants per-query facts, the server runs the plain
   kernels and this telemetry layer costs exactly one flag check per
   batch. *)
let serve_telemetry_on () = Flight.enabled () || Metrics.enabled ()

(* The admission counters again, indexed by kernel code, so the hot
   path below reaches its counter with one load instead of a match. *)
let serve_query_counters =
  [|
    serve_range_queries;
    serve_count_queries;
    serve_knn_queries;
    serve_nearest_queries;
    serve_cell_queries;
  |]

(* Reads the stop clock itself and bumps the admission counter the
   plain [eval] takes through [serve_query], so the instrumented path
   makes ONE probe call and ONE registry touch per query with nothing
   but immediates crossing the boundaries — the latency floats are
   derived inside [Metrics] / [Flight] where they feed unboxed
   stores. *)
let serve_query_done ~kernel ~epoch ~t0 ~visited ~note =
  let t1 = Clock.now_ns () in
  let k = serve_kernel_code kernel in
  Metrics.record_query serve_query_counters.(k)
    serve_latency_sketches.(k) ~ns:(t1 - t0)
    serve_visited_sketches.(k) ~n:visited;
  Flight.record_ns ~t0 ~t1 ~kind:k ~epoch ~visited ~note

let serve_batch ~queries ~jobs f =
  Metrics.incr serve_batches;
  Metrics.set_gauge serve_queue_depth (float_of_int queries);
  timed ~span:"serve:batch"
    ~args:[ ("queries", Trace.Int queries); ("jobs", Trace.Int jobs) ]
    serve_batch_seconds f

let serve_publish ~epoch ~size =
  Metrics.incr serve_epochs_published;
  Metrics.set_gauge serve_epoch_id (float_of_int epoch);
  Metrics.set_gauge serve_epoch_age 0.0;
  Event.emit "serve.epoch.publish"
    [ ("epoch", Event.Int epoch); ("size", Event.Int size) ]

(* The time a request spent joining the churn writer's slice: what of
   the writer's work the response, the socket and the client's
   turnaround did not hide. Wall-clock seconds, so unstable. *)
let serve_writer_wait_sketch = Metrics.sketch ~stable:false "serve.writer.wait"

let serve_writer_wait ~ns =
  Metrics.record_sketch serve_writer_wait_sketch (float_of_int ns *. 1e-9)

let serve_publish_copy ~bytes ~full =
  Metrics.add serve_publish_bytes bytes;
  if full then Metrics.incr serve_publish_full

let serve_pin ~epoch =
  Event.emit ~level:Event.Debug "serve.epoch.pin" [ ("epoch", Event.Int epoch) ]

let serve_retire ~epoch =
  Metrics.incr serve_epochs_retired;
  Event.emit "serve.epoch.retire" [ ("epoch", Event.Int epoch) ]

let serve_epoch_batch ~age = Metrics.set_gauge serve_epoch_age (float_of_int age)

let serve_oversized_responses = Metrics.counter "serve.oversized.responses"

let serve_oversized ~reason =
  Metrics.incr serve_oversized_responses;
  Event.emit ~level:Event.Warn "serve.oversized" [ ("reason", Event.Str reason) ]

let serve_malformed ~reason =
  Metrics.incr serve_malformed_frames;
  Event.emit ~level:Event.Warn "serve.refused"
    [ ("reason", Event.Str reason) ]

let serve_shutdown ~batches ~epoch =
  Event.emit "serve.shutdown"
    [ ("batches", Event.Int batches); ("epoch", Event.Int epoch) ]

(* Experiment trials *)

let trial ~experiment ~index ?n f =
  if not (Metrics.enabled () || Trace.enabled ()) then f ()
  else begin
    (* Idempotent registration doubles as the name cache. *)
    Metrics.incr (Metrics.counter ("trials." ^ experiment));
    let args =
      ("i", Trace.Int index)
      :: (match n with Some n -> [ ("n", Trace.Int n) ] | None -> [])
    in
    Fun.protect
      ~finally:sample_gc
      (fun () -> Trace.with_span ~args ("trial:" ^ experiment) f)
  end
