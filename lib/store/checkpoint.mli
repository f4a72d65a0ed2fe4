open Import

(** Checkpoint/resume for long trial runs — N-growth sweeps and churn
    streams.

    [Sweep.run_incremental] grows one {!Popan_trees.Pr_arena} per trial
    through the whole size grid; [Churn.run] drives an arena through an
    insert/delete/update stream. A checkpoint holds everything either
    run needs to continue: the tree's points, the exact position of the
    trial's random stream, and the run-specific progress — size-grid
    snapshots for growth, the operation count for churn. A PR quadtree's
    shape is a function of its point set, so a resume rebuilds the tree
    from the points in one bulk build; with the generator state
    round-tripping bit-for-bit, the resumed trial replays the very same
    operations the uninterrupted run would have performed, and every row
    it reports depends only on the tree's shape — the final tables are
    byte-identical, checkpointed or not, killed-and-resumed or not.

    The record version is {b v3}: v1 lacked the churn fields, v2 held a
    frozen tree and, for churn, the live multiset again beside it.
    Versioned keys mean older records are simply never found by a v3
    reader — old caches fall back to recomputation, never to
    misdecoding. *)

type growth = {
  points : Point.t array;
      (** the tree's points. Churn runs: the live multiset in generator
          order — exactly what
          {!Popan_experiments.Workload.Churn.restore} needs. Growth
          runs: the arena's points, in any order. *)
  rng : Xoshiro.t;  (** the trial stream, exactly where it paused *)
  next_index : int;  (** next size-grid / checkpoint index to produce *)
  have : int;
      (** growth runs: points inserted so far. Churn runs: the slot
          high-water mark so far, which a rebuild from the live points
          cannot see. *)
  partial : (float * float) array;
      (** growth runs: (leaf count, average occupancy) snapshots for
          indices [0 .. next_index - 1]. Churn runs: empty. *)
  ops_done : int;
      (** churn runs: events drawn so far ([> 0] marks the record as a
          churn checkpoint). Growth runs: 0. *)
}

val kind : string
val version : int
val codec : growth Codec.t

(** [save store ~key_base ~index g] publishes the checkpoint taken after
    producing checkpoint index [index]. *)
val save : Artifact_store.t -> key_base:string -> index:int -> growth -> unit

(** [latest store ~key_base ~upto] probes indices [upto - 1] down to [0]
    and returns the newest valid checkpoint, if any. Invalid or missing
    checkpoints are skipped — resume never trusts a corrupt record.
    Validity: [next_index] must equal the probed index + 1, and a growth
    record ([ops_done = 0]) must carry exactly [next_index] snapshots. *)
val latest : Artifact_store.t -> key_base:string -> upto:int -> growth option
