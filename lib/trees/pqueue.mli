(** A mutable binary min-heap keyed by float priority, the engine of the
    incremental nearest-neighbor search ({!Pr_quadtree.nearest_seq}).
    Ties are popped in unspecified order. *)

type 'a t

(** [create ()] is an empty queue. *)
val create : unit -> 'a t

(** [size q] is the number of queued elements. *)
val size : 'a t -> int

(** [is_empty q] is [size q = 0]. *)
val is_empty : 'a t -> bool

(** [insert q priority value] enqueues. Raises [Invalid_argument] on a
    NaN priority (it would corrupt the heap order). *)
val insert : 'a t -> float -> 'a -> unit

(** [pop_min q] removes and returns the least-priority entry, or
    [None] when empty. *)
val pop_min : 'a t -> (float * 'a) option

(** [peek_min q] returns the least entry without removing it. *)
val peek_min : 'a t -> (float * 'a) option

(** [drain q] pops everything, in priority order. *)
val drain : 'a t -> (float * 'a) list

(** A bounded "best k by distance" collector, the one
    {!Pr_quadtree.k_nearest} uses. Internally a {!t} keyed on negated
    distance (a bounded max-heap), so offers are O(log k) and the
    current pruning bound is O(1). {!Pr_arena.k_nearest} runs the same
    heap steps on flat float arrays, so ties keep and order the same
    points: a change to the steps here must be made there too. *)
module Neighbors : sig
  type 'a t

  (** [create k] collects the [k] nearest offers. Raises
      [Invalid_argument] if [k < 0]; [k = 0] accepts nothing. *)
  val create : int -> 'a t

  (** [capacity n] is the [k] passed to {!create}. *)
  val capacity : 'a t -> int

  (** [size n] is the number of candidates currently retained. *)
  val size : 'a t -> int

  (** [worst n] is the pruning bound: the kth-best distance retained so
      far, [infinity] while fewer than [k] candidates are held, and
      [0.0] when [k = 0] (nothing can improve an empty answer). Offers
      at distance [>= worst n] are rejected, as are subtree visits. *)
  val worst : 'a t -> float

  (** [offer n ~dist v] retains [v] iff [dist < worst n], evicting the
      current worst when full. NaN distances are rejected by the
      underlying heap's [insert]. *)
  val offer : 'a t -> dist:float -> 'a -> unit

  (** [drain_nearest n] empties the collector, nearest-first. *)
  val drain_nearest : 'a t -> 'a list
end
