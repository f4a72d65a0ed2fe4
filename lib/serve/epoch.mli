open Import

(** Epoch snapshots: the serving layer's reader/writer seam.

    A writer applies churn to its own live arena and periodically
    publishes a frozen copy of it ({!publish_from}); readers {!pin} the
    current epoch for the duration of a batch and query its arena with
    the arena-native kernels. Epoch arenas share no column with the
    writer's arena or with each other, so a pinned epoch is immutable by
    construction — readers can never observe a torn snapshot, whatever
    the writer does concurrently.

    Lifecycle: publishing supersedes the previous epoch; a superseded
    epoch stays alive while pins hold it and is retired
    ([serve.epochs.retired]) the moment its last pin drops. The newest
    retired epoch's arena is kept as the {e spare}: the next
    {!publish_from} refreshes it ({!Pr_arena.refresh}) instead of
    allocating a fresh copy, so a publish copies only the chunks churn
    wrote since that epoch was taken. Other retired arenas are released
    ({!Pr_arena.release}). {!shutdown} reclaims everything. All
    operations are mutex-protected: the writer may publish from one
    domain while readers pin from another. *)

type epoch

(** [id e] is the epoch's sequence number (0 for the bootstrap epoch,
    then 1, 2, ... in publication order). *)
val id : epoch -> int

(** [arena e] is the epoch's frozen arena. Callers must only query it —
    never insert, delete or release — and only while they hold a pin on
    [e]: once [e] is retired its arena becomes the spare, and the next
    publish overwrites it with a later epoch's contents. *)
val arena : epoch -> Pr_arena.t

(** [pins e] is the epoch's current pin count. *)
val pins : epoch -> int

type t

(** [create arena] boots the store with [arena] as epoch 0. The store
    takes ownership: once superseded and unpinned, [arena] becomes the
    spare and is later overwritten or released, and {!shutdown}
    releases it in any case. Handing in a live arena is sound only when
    nothing will ever write it again — a static server's built arena,
    which no writer exists to mutate and which is never superseded, so
    it serves as epoch 0 with no copy. An arena that a writer keeps
    mutating must go in as a copy ({!create_from}, or a
    {!Pr_arena.snapshot}): readers of epoch 0 would see its writes. *)
val create : Pr_arena.t -> t

(** [create_from live] boots the store with a copy of the writer's
    [live] arena as epoch 0 — a full copy, counted in
    [serve.publish.bytes] / [serve.publish.full]. The copy keeps
    [live]'s slot layout. *)
val create_from : Pr_arena.t -> t

(** [publish t arena] installs [arena] as the new current epoch and
    retires any superseded epoch no reader holds. Ownership transfers
    as in {!create}. *)
val publish : t -> Pr_arena.t -> epoch

(** [publish_from t live] publishes a copy of the writer's [live] arena
    as the new current epoch. The copy refreshes the spare when there
    is one of [live]'s capacity and depth limit, and an empty
    arena otherwise — the full-copy cases being no spare (every retired
    epoch was still pinned) and a spare too small for [live], which
    regrows to [live]'s column capacity. [serve.publish.bytes] counts the bytes
    copied and [serve.publish.full] the full copies. The copy runs
    outside the store's lock; the caller must be [live]'s only writer
    and must not mutate it during the call. *)
val publish_from : t -> Pr_arena.t -> epoch

(** [current t] is the current epoch, unpinned — a peek, valid only
    under an existing pin or for its [id]. *)
val current : t -> epoch

(** [current_id t] is [id (current t)]. *)
val current_id : t -> int

(** [live_count t] is the number of epochs whose arenas are alive (the
    current one plus pinned superseded ones). *)
val live_count : t -> int

(** [pin t] pins and returns the current epoch: its arena stays alive —
    even across subsequent {!publish}es — until a matching {!unpin}. *)
val pin : t -> epoch

(** [unpin t e] drops one pin; a superseded epoch whose last pin drops
    is reclaimed immediately. Raises [Invalid_argument] if [e] is not
    pinned. *)
val unpin : t -> epoch -> unit

(** [shutdown t] retires every live epoch and releases their arenas
    and the spare, deleting mmap-backed segments. The store must not be
    used afterwards. *)
val shutdown : t -> unit

(** [check_invariants t] audits the epoch store: the current epoch is
    live, ids are unique and below the allocator, no retired or
    negatively-pinned epoch lingers, every superseded epoch still live
    is pinned, and each epoch's arena passes
    {!Pr_arena.check_invariants} — in particular its slot accounting
    (stored + free lists tile the high-water mark), the cross-epoch
    slot-ownership audit: snapshots own their slots outright, so one
    epoch's churn can never free another's slot. It also checks that no
    two live epochs, and no live epoch and the spare, share a column
    ({!Pr_arena.shares_columns}). Returns the problems found (empty when
    healthy). *)
val check_invariants : t -> string list
