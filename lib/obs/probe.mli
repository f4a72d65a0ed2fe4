(** The repository's instrumentation points: every subsystem's
    counters, histograms and span names declared once, behind typed
    entry points, so instrumented code never spells an instrument name
    and the exported vocabulary stays consistent.

    All probes follow the registry's cost model: disabled (the default)
    they are a flag check; the store counters alone are always-on
    because [popan cache stats] depends on them. Wrapping probes
    ([solver], [trial], [mc_row], ...) are exception-safe and return the
    body's value.

    Stability. Work-counting instruments ([*.calls], [*.inserts],
    [solver.iterations], store counters, ...) are registered stable:
    their merged totals depend only on what was computed, so they export
    byte-identically for any domain count. Timing histograms and
    per-schedule facts ([pool.task.seconds], [pool.jobs], ...) are
    registered unstable and vanish from
    {!Metrics.to_json}[ ~stable_only:true]. *)

(** [level ()] describes the current switches, for banners:
    ["off"], ["metrics"] or ["trace"]. *)
val level : unit -> string

(** [set_level l] flips both subsystems at once: [`Off] disables
    everything, [`Metrics_only] enables the registry, [`Trace] enables
    the registry and span recording. *)
val set_level : [ `Off | `Metrics_only | `Trace ] -> unit

(** {1 Solvers — [Fixed_point] / [Newton_model]} *)

(** [solver ~name f] wraps one solve in a [solve:<name>] span and bumps
    [solver.<name>.calls]. *)
val solver : name:string -> (unit -> 'a) -> 'a

(** [solver_done ~name ~iterations ~residual] records a finished solve
    into [solver.iterations] and [solver.residual]. *)
val solver_done : name:string -> iterations:int -> residual:float -> unit

(** [solver_step ~residual] records one iteration of the residual
    trajectory: bumps [solver.steps] and, when tracing, emits a
    [solver.residual] counter sample. *)
val solver_step : residual:float -> unit

(** {1 Monte-Carlo transform rows} *)

(** [mc_row ~row f] wraps one row estimate in an [mc:row] span, bumps
    [mc.rows] and times the row into [mc.row.seconds]. *)
val mc_row : row:int -> (unit -> 'a) -> 'a

(** {1 PR-quadtree builder} *)

(** [builder_insert ()] counts one point insertion ([builder.inserts]). *)
val builder_insert : unit -> unit

(** [builder_split ~depth] counts one leaf split ([builder.splits]) and
    its depth ([builder.split.depth]). *)
val builder_split : depth:int -> unit

(** [arena_build kind ~inserts f] wraps one arena build: an
    [arena:build] / [arena:bulk] span, [arena.builds], and the measured
    allocation rate [arena.minor.words.per.insert] (a gauge — minor
    words consumed by [f] divided by [inserts], so the allocation-free
    claim is a number, not an assertion). [`Bulk] additionally bumps the
    stable [builder.inserts] counter by [inserts] (its points never pass
    through {!builder_insert}) and [arena.bulk.points], keeping the
    stable export identical whichever build path ran. *)
val arena_build :
  [ `Incremental | `Bulk ] -> inserts:int -> (unit -> unit) -> unit

(** {1 Mmap-backed arenas} *)

(** [arena_mapped_bytes ~bytes] sets the [arena.bytes.mapped] gauge to
    the current total of mmap-backed arena segment bytes. *)
val arena_mapped_bytes : bytes:int -> unit

(** [arena_delete ()] counts one successful point removal
    ([arena.deletes]). Allocation-free when probes are disabled — the
    delete path makes the same zero-minor-words claim as insert. *)
val arena_delete : unit -> unit

(** [arena_merge ()] counts one node collapsing back into a leaf after
    deletes drained its subtree to at most the leaf capacity
    ([arena.merges]). *)
val arena_merge : unit -> unit

(** [arena_fallback ~what ~detail] records that a build took a
    different path than requested ([arena.fallbacks]; the one such path
    is an mmap-backed arena degrading to heap columns) and emits a
    one-per-process [arena.fallback] {!Event} at [Warn] — mirrored to
    stderr unless {!Event.set_stderr_mirror}[ false] — because large-n
    runs must never change build path silently. *)
val arena_fallback : what:string -> detail:string -> unit

(** {1 The domain pool} *)

(** [pool_map ~tasks ~jobs f] wraps one fan-out: [pool.batch] span,
    [pool.maps] / [pool.tasks] counters, [pool.jobs] gauge. *)
val pool_map : tasks:int -> jobs:int -> (unit -> 'a) -> 'a

(** [pool_task ~index f] wraps one claimed chunk — the pool's
    scheduling unit, [index] its first element — on whatever domain
    runs it: [task] span, [pool.task.seconds] timing, and a per-domain
    bump of [pool.tasks.run] (read {!Metrics.counter_shards} for
    utilization). Chunk-granular on purpose: a per-element span costs
    two clock reads plus a histogram observation inside every task
    body, which a fast serve kernel can't absorb. *)
val pool_task : index:int -> (unit -> 'a) -> 'a

(** [pool_reduce ~tasks f] wraps the indexed reduction that assembles
    results in task order ([pool.reduce] span,
    [pool.reduce.seconds]). *)
val pool_reduce : tasks:int -> (unit -> 'a) -> 'a

(** {1 The artifact store} *)

val store_hits : Metrics.counter
val store_misses : Metrics.counter
val store_computes : Metrics.counter
val store_puts : Metrics.counter

(** [store_counts ()] is [(hits, misses, computes, puts)] — the merged
    process-wide totals. *)
val store_counts : unit -> int * int * int * int

(** [store_find ~kind f] wraps a lookup in a [store:find] span, times it
    into [store.find.seconds], and counts hit or miss from the result. *)
val store_find : kind:string -> (unit -> 'a option) -> 'a option

(** [store_put ~kind f] wraps a publish in a [store:put] span, times it
    into [store.put.seconds], and bumps [store.puts]. *)
val store_put : kind:string -> (unit -> unit) -> unit

(** [store_compute ()] counts a memo miss that ran its thunk. *)
val store_compute : unit -> unit

(** {1 GC telemetry} *)

(** [sample_gc ()] snapshots [Gc.quick_stat] into the [gc.minor.words] /
    [gc.major.words] / [gc.minor.collections] / [gc.major.collections]
    gauges (all unstable — heap traffic is schedule-dependent). Called
    automatically after every {!trial}; call it around any other span
    of interest. No-op while the registry is disabled. *)
val sample_gc : unit -> unit

(** {1 The serving layer}

    Admission metrics for the wire-protocol request loop. Per-kernel
    query counters ([serve.queries.*]) and the epoch-lifecycle
    counters ([serve.epochs.*], [serve.publish.*],
    [serve.malformed.frames]) are stable —
    they count what was asked and published, independent of
    scheduling; batch timing, queue depth and epoch-age gauges are
    unstable per-schedule facts. *)

(** [serve_query ~kernel] counts one admitted query by kernel
    ([serve.queries.range] / [.count] / [.knn] / [.nearest] /
    [.cell]). The plain [eval] path calls this; the instrumented path
    gets the same bump inside {!serve_query_done}, so the counters
    agree whichever path a batch ran. *)
val serve_query :
  kernel:[ `Range | `Count | `Knn | `Nearest | `Cell ] -> unit

(** [serve_kernel_name code] is the short kernel name behind a
    {!Flight.entry}'s integer [kind] ("range", "count", "knn",
    "nearest", "cell"; "unknown" otherwise). *)
val serve_kernel_name : int -> string

(** [serve_pruned_subtrees n] counts [n] subtrees answered wholesale
    by containment pruning in the instrumented range/count kernels
    ([serve.pruned.subtrees] — stable: a pure function of tree shape
    and queries, independent of scheduling). The kernels tally locally
    and flush once per query so the counter costs O(1) per query, not
    O(pruning events), and allocates nothing, registry on or off.
    Bumped only on the telemetry path; the plain kernels prune
    identically but stay probe-free. *)
val serve_pruned_subtrees : int -> unit

(** [serve_telemetry_on ()] is true when either the flight recorder or
    the metrics registry wants per-query facts. The batch loop reads it
    once per batch: false means the plain (uninstrumented) kernels run
    and telemetry costs exactly that one check. *)
val serve_telemetry_on : unit -> bool

(** [serve_query_done ~kernel ~epoch ~t0 ~visited ~note] records one
    answered query from its start reading [t0] ({!Clock.now_ns}): reads
    the stop clock, bumps the [serve.queries.*] admission counter (the
    instrumented path's replacement for {!serve_query}), records
    latency into the unstable [serve.latency.<kind>] sketch and the
    visited-node count into the stable [serve.visited.<kind>] sketch
    (both behind one enabled check and shard lookup), and appends a
    flight-recorder entry (which emits the [serve.slow_query] event
    past the threshold). Everything crossing this boundary is an
    immediate — the latency/timestamp floats are derived inside the
    recorders, straight into unboxed stores — so one instrumented
    query costs one probe call and zero allocations. *)
val serve_query_done :
  kernel:[ `Range | `Count | `Knn | `Nearest | `Cell ] ->
  epoch:int ->
  t0:int ->
  visited:int ->
  note:string ->
  unit

(** [serve_batch ~queries ~jobs f] wraps one batch execution: a
    [serve:batch] span, [serve.batches], the [serve.queue.depth] gauge
    (admitted queries awaiting this batch) and the log-spaced (three
    buckets per decade, 1us–100s) [serve.batch.seconds] histogram. *)
val serve_batch : queries:int -> jobs:int -> (unit -> 'a) -> 'a

(** [serve_publish ~epoch ~size] counts an epoch publication
    ([serve.epochs.published]), resets the [serve.epoch.id] /
    [serve.epoch.age.batches] gauges and emits a [serve.epoch.publish]
    event. *)
val serve_publish : epoch:int -> size:int -> unit

(** [serve_publish_copy ~bytes] accounts one full copy of an epoch
    arena: [serve.publish.bytes] gains the column bytes copied, and
    [serve.publish.full] counts the copy (the boot epoch, or a publish
    with no spare one epoch behind). Both stable. *)
val serve_publish_copy : bytes:int -> unit

(** [serve_publish_replay ~ops] counts the churn operations the writer
    replayed into a spare to bring it up to the current epoch
    ([serve.publish.replayed], stable): a steady-state publish replays
    one slice and copies nothing. *)
val serve_publish_replay : ops:int -> unit

(** [serve_writer_wait ~ns] records, into the unstable
    [serve.writer.wait] sketch (seconds), how long a request waited to
    join the churn writer's slice before it could proceed. The server
    calls it only with telemetry on. *)
val serve_writer_wait : ns:int -> unit

(** [serve_pin ~epoch] emits a [Debug]-level [serve.epoch.pin] event —
    below the default stderr mirror, visible in the event ring. *)
val serve_pin : epoch:int -> unit

(** [serve_retire ~epoch] counts an epoch whose last pin dropped and
    whose arena was reclaimed ([serve.epochs.retired]); emits
    [serve.epoch.retire]. *)
val serve_retire : epoch:int -> unit

(** [serve_epoch_batch ~age] sets [serve.epoch.age.batches] — batches
    answered from the current epoch since it was published. *)
val serve_epoch_batch : age:int -> unit

(** [serve_oversized ~reason] counts a response refused because its
    frame would exceed the wire limit ([serve.oversized.responses]) and
    emits a [serve.oversized] event at [Warn]. *)
val serve_oversized : reason:string -> unit

(** [serve_malformed ~reason] counts a rejected request frame
    ([serve.malformed.frames]) — truncation, checksum mismatch, or an
    undecodable payload — and emits a [serve.refused] event at
    [Warn]. *)
val serve_malformed : reason:string -> unit

(** [serve_shutdown ~batches ~epoch] emits the [serve.shutdown]
    lifecycle event as the request loop exits. *)
val serve_shutdown : batches:int -> epoch:int -> unit

(** {1 Experiment trials} *)

(** [trial ~experiment ~index ?n f] wraps one trial task in a
    [trial:<experiment>] span (args [index], optional [n]) and bumps
    [trials.<experiment>]. *)
val trial : experiment:string -> index:int -> ?n:int -> (unit -> 'a) -> 'a
