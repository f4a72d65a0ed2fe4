open Import

(** The request loop: batched arena-native query execution over epoch
    snapshots, behind the {!Wire} protocol.

    One server owns a live arena (the churn writer's), an {!Epoch}
    store of published snapshots, and a deterministic domain pool. A
    [Batch] request pins the current epoch, fans its queries out on the
    pool ([map_array]'s task-ordered reduction makes the response
    byte-identical at every job count), and — when churn is configured —
    concurrently applies the next slice of the deterministic churn
    stream to the live arena, publishing the result as the next epoch
    ({!Epoch.publish_from}: a refresh of the spare that copies only the
    chunks the slice wrote). The churn work runs on one writer domain
    that lives as long as the server; a static server
    ([churn_ops = 0]) has none. Readers never observe a torn snapshot:
    epochs share no mutable state with the live arena.

    {b Joins.} A batch's answers are returned as soon as they are
    computed; its slice keeps running while the response is encoded and
    written and the client turns around. The slice is joined by the next
    call that needs what it publishes: {!run_queries} joins before it
    pins, {!handle} before any request that is not a [Batch]
    ([Stats], [Telemetry], [Quit]), {!epochs} before it returns the
    store, and {!shutdown} before it stops the writer. Every request
    therefore sees what it would if each batch had joined its own slice:
    batch [n] pins epoch [n] and leaves epoch [n+1] installed for the
    next request, and a [Stats] after it reports epoch [n+1] and the
    size after the slice. With telemetry on, each join's wait is
    recorded in the [serve.writer.wait] sketch.

    {b Writer failures} surface at the join, that is one call after the
    batch that started the failed slice; that batch's answers came from
    its pinned epoch and are correct. *)

(** [eval arena q] answers one query sequentially — the same function
    the pool's tasks run when telemetry is off, and the oracle tests
    replay. A query with a NaN or infinite coordinate, of any kind,
    answers [Rejected] with a reason naming the field, decided before
    any kernel runs. A [Knn] with [k < 0] and a [Cell] probe outside the
    bounds answer [Rejected] as well. *)
val eval : Pr_arena.t -> Wire.query -> Wire.answer

(** [eval_instrumented arena ~epoch q] is {!eval} plus a clock: the same
    dispatch and the same kernels, each reporting the tree nodes it
    visited, with the query's latency and visited count recorded
    through {!Probe.serve_query_done} (latency/visited sketches and the
    flight recorder), and the subtrees count and range queries pruned
    added to [serve.pruned.subtrees]. Same answers as {!eval},
    always. *)
val eval_instrumented : Pr_arena.t -> epoch:int -> Wire.query -> Wire.answer

(** [run_batch ?epoch pool arena queries] answers a whole batch on the
    pool, results in request order, wrapped in the [serve:batch] probe
    (queue-depth gauge, latency histogram, per-kernel counters).
    Telemetry costs one {!Probe.serve_telemetry_on} check per batch:
    off, the tasks run the plain {!eval}; on, {!eval_instrumented}
    tagged with [epoch] (default 0).

    Tasks are scheduled in Morton order of the query anchors — a box's
    low corner, a probe point — so consecutive tasks touch overlapping
    root paths and warm column cache lines; workers claim them 256 at a
    time. A deterministic inverse permutation scatters the answers back
    to arrival positions: the response is byte-identical to
    [Array.map (eval arena) queries] at every job count (batches over
    [2^20] queries run in arrival order). *)
val run_batch :
  ?epoch:int ->
  Parallel.Pool.t -> Pr_arena.t -> Wire.query array -> Wire.answer array

(** [mixed_queries rng n] draws [n] queries of the five kinds in turn —
    a range box of side 0.005 to 0.055, a count from the origin to a
    point, a k-NN with k cycling through 1 to 16, a nearest and a cell
    probe — each anchored at a uniform point. The same [rng] state
    draws the same queries, so a seed names a batch: {!warm}, the
    serve smoke and the micro-benchmarks share this mix. *)
val mixed_queries : Xoshiro.t -> int -> Wire.query array

type config = {
  jobs : int option;  (** pool width; [None] = the session default *)
  capacity : int;  (** leaf capacity of the served tree *)
  base_points : int;  (** initial population *)
  seed : int;  (** master seed: population and churn stream *)
  churn_ops : int;
      (** writer operations applied concurrently with each batch;
          [0] serves a static tree and never publishes *)
  insert_fraction : float;
  update_fraction : float;
  drift_sigma : float;
  mmap_dir : string option;  (** back the live arena's columns with mmap *)
}

(** 10k uniform points at capacity 8, seed 1987, 256 churn ops per
    batch with the default churn mix (insert fraction 0.5, update
    fraction 1/3, drift 0.01), heap-backed. *)
val default_config : config

type t

(** [create ?pool config] builds the initial population
    (deterministically from [config.seed]) into the live arena with
    {!Pr_arena.bulk_zordered}, reading the churn stream's live columns,
    so each leaf's points sit in consecutive slots. It publishes epoch 0,
    readies the pool ([?pool] borrows an existing one, which
    {!shutdown} then leaves running) and, when [churn_ops > 0], spawns
    the writer domain. Epoch 0 of a static server ([churn_ops = 0]) is
    the live arena itself, with no copy; a churning server's is a copy,
    because its writer mutates the live arena while batch 0 reads
    epoch 0. With [base_points = 0] the tree and the churn stream both
    start empty. Raises [Invalid_argument] on negative [base_points] or
    [churn_ops]. *)
val create : ?pool:Parallel.Pool.t -> config -> t

(** [epochs t] is the server's epoch store, after joining the slice in
    flight — so its current epoch is the one the next batch pins. Raises
    what the joined slice raised. *)
val epochs : t -> Epoch.t

val pool : t -> Parallel.Pool.t

(** [batches t] counts batches answered so far. *)
val batches : t -> int

(** [run_queries t queries] answers one batch as described above and
    returns the answering epoch's id with the answers. It first joins
    the previous batch's slice (raising what that slice raised), pins
    the current epoch and starts the next slice, and returns before
    that slice is joined. *)
val run_queries : t -> Wire.query array -> int * Wire.answer array

(** [warm t ~batches ~queries] answers [batches] deterministic
    self-batches of [queries] {!mixed_queries} each (seeded from the
    config):
    they count toward {!batches} and advance churn epochs exactly like
    client batches, so a freshly started server has telemetry to show
    before a client drives load ([popan serve --warm]). *)
val warm : t -> batches:int -> queries:int -> unit

(** [handle t req] dispatches one request; the boolean is false when
    the loop should stop ([Quit]). Every request but a [Batch] joins
    the slice in flight first. *)
val handle : t -> Wire.request -> Wire.response * bool

(** [respond oc resp] writes [resp] as one frame, or — when it would
    exceed {!Wire.max_frame} — a short [Refused] saying so instead,
    counted in [serve.oversized.responses]. Either way the stream stays
    in step for the next request. *)
val respond : out_channel -> Wire.response -> unit

(** [serve_channels t ic oc] reads framed requests from [ic] and writes
    framed responses to [oc] through {!respond} until EOF, [Quit], or a
    malformed frame (refused, then the loop stops — a broken frame
    leaves the stream position undefined). A response too large to
    frame is refused and the loop keeps serving. Returns [true] iff the
    conversation ended with
    [Quit] — the client asked the server itself to stop, as opposed to
    merely hanging up. *)
val serve_channels : t -> in_channel -> out_channel -> bool

(** [shutdown t] joins the slice in flight, stops and joins the writer
    domain, retires every epoch and releases the live arena's mmap
    segments, shuts down an owned pool, and flushes the obs counters to
    the default artifact store when one is configured. When the joined
    slice failed, its exception is raised after all of that. *)
val shutdown : t -> unit

(** [run ?pool ?socket ?warm_batches config] is the whole lifecycle:
    {!create}, [warm_batches] self-batches of 1024 queries (default 0),
    serve on stdin/stdout (or accept sequential connections on the Unix
    socket [?socket] until a client sends [Quit]), then {!shutdown} —
    which runs even if serving raises. *)
val run :
  ?pool:Parallel.Pool.t -> ?socket:string -> ?warm_batches:int -> config -> unit
