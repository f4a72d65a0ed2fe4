open Import

(** Checkpoint/resume for long trial runs — N-growth sweeps and churn
    streams.

    [Sweep.run_incremental] grows one {!Pr_arena} per trial through the
    whole size grid; [Churn.run] drives an arena through an
    insert/delete/update stream. A checkpoint freezes everything either
    run needs to continue: the tree so far, the exact position of the
    trial's random stream, and the run-specific progress — size-grid
    snapshots for growth, the live multiset and operation count for
    churn. Because the PR decomposition is canonical and the generator
    state round-trips bit-for-bit, a resumed trial replays the very same
    operations the uninterrupted run would have performed — the final
    tables are byte-identical, checkpointed or not, killed-and-resumed
    or not.

    The record version is {b v2}: v1 (PR 3) lacked the churn fields, and
    versioned keys mean v1 records are simply never found by v2 readers
    — old caches fall back to recomputation, never to misdecoding. *)

type growth = {
  tree : Pr_quadtree.t;  (** frozen arena state *)
  rng : Xoshiro.t;  (** the trial stream, exactly where it paused *)
  next_index : int;  (** next size-grid / checkpoint index to produce *)
  have : int;  (** points inserted so far (growth); live count (churn) *)
  partial : (float * float) array;
      (** growth runs: (leaf count, average occupancy) snapshots for
          indices [0 .. next_index - 1]. Churn runs: empty. *)
  ops_done : int;
      (** churn runs: events drawn so far ([> 0] marks the record as a
          churn checkpoint). Growth runs: 0. *)
  live : Point.t array;
      (** churn runs: the live multiset in generator order — exactly
          what {!Popan_experiments.Workload.Churn.restore} needs.
          Growth runs: empty (the tree itself holds the points). *)
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
