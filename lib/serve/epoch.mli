open Import

(** Epoch snapshots: the serving layer's reader/writer seam.

    A writer applies churn to an arena no reader can reach and then
    {!publish}es that arena as the next epoch; readers {!pin} the
    current epoch for the duration of a batch and query its arena with
    the arena-native kernels. A published arena is not written again
    until it has been retired and handed back ({!take_spare}), and no
    two epochs share a column, so a pinned epoch is immutable — readers
    can never observe a torn epoch, whatever the writer does
    concurrently.

    Lifecycle: publishing supersedes the previous epoch; a superseded
    epoch stays alive while pins hold it and is retired
    ([serve.epochs.retired]) the moment its last pin drops. The newest
    retired epoch's arena is kept as the {e spare}, with its epoch id.
    The churn writer takes it: one epoch behind the current one, it
    catches up by replaying the slice that produced the current epoch,
    so a steady-state publish copies nothing; otherwise the writer
    starts from a full copy of the current epoch ({!copy_current}).
    Other retired arenas are released ({!Pr_arena.release}).
    {!shutdown} reclaims everything. All operations are
    mutex-protected: the writer may publish from one domain while
    readers pin from another. *)

type epoch

(** [id e] is the epoch's sequence number (0 for the bootstrap epoch,
    then 1, 2, ... in publication order). *)
val id : epoch -> int

(** [arena e] is the epoch's frozen arena. Callers must only query it —
    never insert, delete or release — and only while they hold a pin on
    [e]: once [e] is retired its arena becomes the spare, and the
    writer replays later churn into it. *)
val arena : epoch -> Pr_arena.t

(** [pins e] is the epoch's current pin count. *)
val pins : epoch -> int

type t

(** [create arena] boots the store with [arena] as epoch 0. The store
    takes ownership: once superseded and unpinned, [arena] becomes the
    spare — handed back to the writer, or released — and {!shutdown}
    releases it in any case, mmap segments included. Whoever handed it
    in must not write it until {!take_spare} hands it back: readers of
    its epoch would see the writes. A static server hands in its build,
    which nothing ever writes; a churning server boots from a copy
    ({!create_from}), because its writer goes on to churn the build. *)
val create : Pr_arena.t -> t

(** [create_from live] boots the store with a full copy of [live] as
    epoch 0 ({!Pr_arena.snapshot}: [live]'s slot layout and column
    capacity), counted as {!copy_current} counts, and takes [live]
    itself as the spare, with id -1: the empty slice takes its state to
    epoch 0's, so a writer's first slice finds it one epoch behind and
    churns it into epoch 1. Ownership of [live] passes to the store as
    in {!create}. *)
val create_from : Pr_arena.t -> t

(** [publish t arena] installs [arena] as the new current epoch and
    retires any superseded epoch no reader holds. Ownership transfers
    as in {!create}. *)
val publish : t -> Pr_arena.t -> epoch

(** [take_spare t] removes and returns the spare — the newest retired
    epoch's arena — with the id of the epoch it holds, or [None] when
    there is none (every superseded epoch is still pinned, or the spare
    was taken and nothing has retired since). The caller owns the
    arena: it must {!publish} it or {!Pr_arena.release} it. *)
val take_spare : t -> (int * Pr_arena.t) option

(** [copy_current t] is a full copy ({!Pr_arena.snapshot}) of the
    current epoch's arena, counted in [serve.publish.bytes] (the bytes
    copied) and [serve.publish.full] (one full copy). The copy runs
    outside the store's lock, so readers keep pinning meanwhile; the
    caller must be the store's only publisher, which keeps the epoch
    being copied current. *)
val copy_current : t -> Pr_arena.t

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
