(** A process-wide registry of named counters, gauges and fixed-bucket
    histograms, sharded per domain.

    {b Hot-path cost.} Instruments are registered once (mutex-protected,
    idempotent by name) and updated through handles. An update is one
    enabled-flag load plus a plain write into the calling domain's shard
    of a preallocated array — no allocation, no lock, no contended
    atomic. With the registry disabled ({!set_enabled}[ false], the
    default) every update is just the flag check, so instrumented code
    costs within measurement noise of uninstrumented code (the bench
    suite's obs ablation keeps this honest).

    {b Shards and determinism.} Each instrument keeps one slot per
    domain id; a domain only ever writes its own slot, and merged values
    ({!counter_value}, {!histogram_counts}) sum the shards at read time.
    Reads are exact whenever the writing domains have been joined
    (`Domain.join` establishes the necessary happens-before), which is
    how every experiment reads them — after the fan-out completes.
    Because merged integer totals do not depend on which domain did the
    work, an instrument marked [~stable:true] (the default) exports
    byte-identically for any job count given the same seed. Instruments
    recording timings or per-schedule facts must be registered with
    [~stable:false]; {!to_json}[ ~stable_only:true] skips them (and every
    float sum, whose merge order is shard order, not task order).

    {b Always-on counters.} A counter registered with [~always:true]
    counts even while the registry is disabled — used for the artifact
    store's hit/miss/compute/put accounting, which [popan cache stats]
    must report whether or not metrics were requested. *)

type counter
type gauge
type histogram
type sketch

(** [set_enabled b] switches the registry on or off. Off is the default;
    updates (except [~always] counters) become no-ops. *)
val set_enabled : bool -> unit

val enabled : unit -> bool

(** {1 Registration}

    Registration is idempotent: the same name returns the same handle.
    Re-registering a name as a different instrument type (or a histogram
    with different bounds) raises [Invalid_argument]. Names should be
    dotted lowercase paths ([solver.iterations]). *)

val counter : ?stable:bool -> ?always:bool -> string -> counter
val gauge : ?stable:bool -> string -> gauge

(** [histogram name ~bounds] registers a histogram with fixed bucket
    upper bounds (strictly increasing); an observation lands in the
    first bucket whose bound is [>=] the value, or in the implicit
    overflow bucket. Raises [Invalid_argument] on empty or non-increasing
    bounds. *)
val histogram : ?stable:bool -> string -> bounds:float array -> histogram

(** [sketch name] registers a mergeable {!Sketch} instrument (per-query
    latency and visited-count distributions on the serving path).
    Shards are allocated lazily on each domain's first record, so an
    unused sketch costs one pointer array. Like histograms, the merged
    state is integer bucket counts, so a [~stable] sketch (the default)
    exports byte-identically at any job count; register latency
    sketches [~stable:false]. Re-registration with different
    parameters raises [Invalid_argument]. Defaults mirror
    {!Sketch.create}: [alpha = 0.01] over [[1e-9, 1e9]]. *)
val sketch :
  ?stable:bool ->
  ?alpha:float ->
  ?min_value:float ->
  ?max_value:float ->
  string ->
  sketch

(** [log_bounds ~per_decade ~lo ~hi] is the geometric bucket-edge array
    for latency histograms: [per_decade] bounds per power of ten from
    [lo] to [hi] inclusive, strictly increasing — wide enough that
    realistic observations never saturate into the overflow bucket. *)
val log_bounds : per_decade:int -> lo:float -> hi:float -> float array

(** {1 Updates} *)

(** [incr c] adds one to [c]. *)
val incr : counter -> unit

(** [add c n] adds [n] to [c]: [incr] for a count that is not one. A
    plain argument, where an optional [?by] would box [Some n] at every
    call. *)
val add : counter -> int -> unit
val set_gauge : gauge -> float -> unit
val observe : histogram -> float -> unit

(** [record_sketch s v] records one observation into the calling
    domain's shard: a flag check, one [log], one integer increment. *)
val record_sketch : sketch -> float -> unit

(** [record_query c s ~ns s' ~n] bumps counter [c], records [ns * 1e-9]
    seconds into [s] (via {!Sketch.record_ns}) and the integer [n] into
    [s'] (via {!Sketch.record_int}) behind a single enabled check and
    shard resolution. This is the serve per-query hot triple —
    admission count, latency, visited nodes — with integer arguments
    because a float crossing this non-inlined call would box on
    non-flambda builds, and at ~150ns of telemetry per query every
    duplicated atomic read, domain-id fetch and allocation showed up
    on the overhead bar. ([c]'s [~always] flag is still honored while
    the registry is disabled.) *)
val record_query : counter -> sketch -> ns:int -> sketch -> n:int -> unit

(** {1 Merged reads} *)

val counter_value : counter -> int

(** [counter_shards c] is the per-domain breakdown [(domain id, count)],
    nonzero shards only, ascending domain id — per-domain utilization
    for free when the counter is bumped by the domain doing the work. *)
val counter_shards : counter -> (int * int) list

val gauge_value : gauge -> float

(** [histogram_counts h] is the merged bucket counts,
    [Array.length bounds + 1] cells (last = overflow). *)
val histogram_counts : histogram -> int array

val histogram_count : histogram -> int
val histogram_sum : histogram -> float
val histogram_bounds : histogram -> float array

(** [sketch_merged s] merges every domain shard into a fresh sketch.
    Merging adds commutative integer counts, so the result depends only
    on the recorded multiset of values, not the schedule. *)
val sketch_merged : sketch -> Sketch.t

val sketch_count : sketch -> int
val sketch_quantile : sketch -> float -> float option

(** [sketch_snapshots ?stable_only ?prefix ()] is every registered
    sketch (name-sorted, optionally filtered to a name prefix such as
    ["serve."]) with its merged snapshot — the [Telemetry] wire
    response's payload. *)
val sketch_snapshots :
  ?stable_only:bool -> ?prefix:string -> unit -> (string * Sketch.snapshot) list

(** {1 Export and maintenance} *)

(** [reset ()] zeroes every instrument's shards (registrations are
    kept). Call only while no other domain is updating. *)
val reset : unit -> unit

(** [to_json ?stable_only ()] renders the registry sorted by instrument
    name. The full form ([stable_only = false], the default) carries
    counters, gauges and histograms with bucket counts, totals and float
    sums. With [stable_only = true] only [~stable] counters and
    histograms appear, histograms carry bucket counts and totals but no
    float sums, and every gauge is omitted (the ["gauges"] key stays,
    empty, so the schema is uniform) — every byte of the
    result is schedule-independent, so equal seeds give equal strings at
    any job count. *)
val to_json : ?stable_only:bool -> unit -> string

(** [report ()] is a human-readable table of every registered instrument
    with a nonzero value (the [--metrics] output). *)
val report : unit -> string

(** [validate_json j] checks a parsed {!to_json} document against the
    schema: the [popan-metrics-2] marker (v1 documents without the
    [sketches] section stay valid), integer counters, histogram
    [counts] one longer than [bounds] and summing to [count], sketch
    buckets as ascending [[index, positive count]] pairs with [total =
    zeros + sum]. Returns the number of instruments, or a description
    of the first problem. *)
val validate_json : Obs_json.t -> (int, string) result

(** [to_prometheus ()] renders the registry in the Prometheus text
    exposition format: names on the [popan_] prefix with dots as
    underscores, counters and gauges as single samples, histograms as
    cumulative [_bucket{le=...}] series plus [_sum]/[_count], sketches
    as summaries (quantile series at 0.5/0.9/0.99/0.999 plus
    [_sum]/[_count]). *)
val to_prometheus : unit -> string

(** [validate_prometheus text] is the line-grammar checker for the text
    exposition format: metric/label name alphabets, label value
    escapes, parseable values, every sample preceded by its family's
    TYPE declaration, histogram buckets cumulative and ending at
    [le="+Inf"] in agreement with [_count]. Returns the number of
    sample lines, or a description of the first problem. *)
val validate_prometheus : string -> (int, string) result
