open Import

(* One integer grid: the arena covers the unit square, and every cell
   down to [max_depth] <= 42 is a dyadic square of the 2^-42 grid. A
   point's fine ordinates [floor (x * 2^42)] and [floor (y * 2^42)]
   decide its child at every level, computed on demand from the float
   columns — a slot stores its coordinates and its chain link, nothing
   else. The bulk sort carries the same bits, interleaved, in windows
   of 15 levels (see [window]). *)
let bits_fine = Morton.bits_fine

(* Morton.quantize_fine, open-coded: calling across the module boundary
   passes the float boxed (2 words each for x and y, every insert);
   local arithmetic on a power-of-two constant stays unboxed and is the
   identical exact computation. *)
let fine_scale = float_of_int (1 lsl bits_fine)

(* 2^-42 is a power of two, so multiplying a fine ordinate by it is the
   exact dyadic cell corner k/2^42 — identical floats to the midpoint
   cascade [Box.child] would produce. The query kernels descend on fine
   integers and materialize corners only when a float compare needs
   them. *)
let inv_fine_scale = 1.0 /. fine_scale

(* Children of a split node occupy four consecutive node ids in MORTON
   pair order — (y >= mid) * 2 + (x >= mid): SW, SE, NW, NE — because
   that is the order a sorted code array yields them. Quadrant order
   (NW, NE, SW, SE) differs by this fixed permutation, which is its own
   inverse: quad_pair.(pair) is the quadrant index and quad_pair.(quad)
   is the pair. *)
let quad_pair = [| 2; 3; 0; 1 |]

(* Point, key and scratch columns are Bigarrays: the data lives outside
   the OCaml heap (minor-heap-free by construction, not by discipline),
   loads in the radix loops compile to unboxed reads, and a column can
   be a shared file mapping for out-of-core builds. The integer kind is
   [Bigarray.int] — a word-sized element whose accessors never box —
   rather than [int64], whose [get] allocates a boxed Int64 per read and
   would break the zero-allocation insert claim. One tag bit is lost;
   62-bit entries are ample for 42-bit codes and slot indices. *)
type farr = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
type iarr = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
type column = farr

type backing = Heap | Mmap of { dir : string }

type t = {
  capacity : int;
  max_depth : int;
  mutable backing : backing;  (* effective: Heap after an mmap failure *)
  seg_dir : string option;  (* this arena's private segment directory *)
  mutable seg_bytes : (string * int) list;  (* segment name -> bytes *)
  (* Nodes, parallel arrays indexed by node id; node 0 is the root.
     These stay OCaml int arrays: they are small next to the point
     columns (3 words per node, a node per few points, vs 3 words per
     point plus sort buffers). *)
  mutable nodes : int;  (* ids in use *)
  mutable child : int array;  (* -1 = leaf; else first of 4 children *)
  mutable count : int array;  (* live points in the node's subtree: a
                                 leaf's chain length, an internal node's
                                 exact descendant total. The query
                                 kernels prune on containment by adding
                                 this in O(1). *)
  mutable head : int array;  (* leaves: first point slot, -1 = none *)
  (* Points, parallel columns indexed by slot: slot = insertion rank
     after an incremental or in-place bulk build, Z-order rank after
     [bulk_zordered]; churn reuses freed slots either way. *)
  mutable size : int;
  mutable xs : farr;
  mutable ys : farr;
  mutable next : iarr;  (* intrusive per-leaf chain, -1 ends *)
  (* O(1) statistics, maintained per insert and delete. *)
  mutable leaves : int;
  mutable internals : int;
  mutable height : int;
  hist : int array;  (* capacity + 1 cells; over-full leaves clamp *)
  (* Churn bookkeeping. Freed point slots and freed node 4-blocks are
     recycled through intrusive free lists — a freed slot threads
     through the [next] column, a freed block through [child] at its
     base id — so sustained delete/insert churn allocates nothing and
     the arena footprint is bounded by the live-population high-water
     mark ([slots]), not by lifetime inserts. [size] stays the live
     count; [slots] only ever grows. *)
  mutable slots : int;  (* point-slot high-water mark; size <= slots *)
  mutable free_slot : int;  (* freed-slot list head via [next], -1 = none *)
  mutable free_node : int;  (* freed 4-block list head via [child], -1 *)
  path : int array;  (* delete descent scratch: root-to-leaf node ids *)
  depth_count : int array;  (* leaves per depth; keeps height exact *)
  qbuf : farr;  (* query point scratch: floats cross into the int-only
                   delete descent unboxed via a Bigarray, never as
                   (boxed) function arguments *)
}

(* Segment-backed column allocation. Each arena with [Mmap] backing owns
   a private subdirectory (pid + a process-wide counter, so two arenas
   never collide on segment files); every column is one file, and
   growth simply remaps the same file at the larger size — the kernel
   carries the old contents over, no copy needed. Any failure to map
   degrades to heap backing, loudly, via [Probe.arena_fallback]. *)

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with
    | Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let arena_counter = Atomic.make 0
let global_mapped = Atomic.make 0

let note_mapped t name bytes =
  let old = try List.assoc name t.seg_bytes with Not_found -> 0 in
  t.seg_bytes <- (name, bytes) :: List.remove_assoc name t.seg_bytes;
  let delta = bytes - old in
  let total = Atomic.fetch_and_add global_mapped delta + delta in
  Probe.arena_mapped_bytes ~bytes:total

let map_column (type a b) dir name (kind : (a, b) Bigarray.kind) n :
    (a, b, Bigarray.c_layout) Bigarray.Array1.t =
  let path = Filename.concat dir (name ^ ".seg") in
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o600 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      (* [map_file] with [shared = true] grows the file to the mapping
         size; fresh pages read back as zeros. *)
      Bigarray.array1_of_genarray
        (Unix.map_file fd kind Bigarray.c_layout true [| n |]))

let heap_f n : farr = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n
let heap_i n : iarr = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n

let mmap_failed t exn =
  Probe.arena_fallback ~what:"mmap-to-heap"
    ~detail:
      (Printf.sprintf "mapping an arena segment failed: %s"
         (Printexc.to_string exn));
  t.backing <- Heap

let alloc_f t name n : farr =
  match t.backing with
  | Heap -> heap_f n
  | Mmap { dir } -> (
    try
      let a = map_column dir name Bigarray.float64 n in
      note_mapped t name (8 * n);
      a
    with (Unix.Unix_error _ | Sys_error _) as e ->
      mmap_failed t e;
      heap_f n)

let alloc_i t name n : iarr =
  match t.backing with
  | Heap -> heap_i n
  | Mmap { dir } -> (
    try
      let a = map_column dir name Bigarray.int n in
      note_mapped t name (8 * n);
      a
    with (Unix.Unix_error _ | Sys_error _) as e ->
      mmap_failed t e;
      heap_i n)

(* Delete the segment files [names] names, and their bytes from the
   mapped total. A mapping stays readable until its Bigarray is
   collected; POSIX keeps an unlinked file alive while mapped. *)
let drop_segments t names =
  match t.seg_dir with
  | None -> ()
  | Some dir ->
    let dropped, kept =
      List.partition (fun (name, _) -> List.mem name names) t.seg_bytes
    in
    List.iter
      (fun (name, _) ->
        try Sys.remove (Filename.concat dir (name ^ ".seg"))
        with Sys_error _ -> ())
      dropped;
    let freed = List.fold_left (fun a (_, b) -> a + b) 0 dropped in
    t.seg_bytes <- kept;
    let total = Atomic.fetch_and_add global_mapped (-freed) - freed in
    Probe.arena_mapped_bytes ~bytes:total

(* The sort buffers a bulk build maps, dropped when its sort is done. *)
let sort_segments = [ "keys"; "scratch" ]

let release t =
  drop_segments t (List.map fst t.seg_bytes);
  Option.iter
    (fun dir -> try Unix.rmdir dir with Unix.Unix_error _ | Sys_error _ -> ())
    t.seg_dir

let create ?(max_depth = 16) ?(reserve = 0) ?(backing = Heap) ~capacity () =
  if capacity < 1 then invalid_arg "Pr_arena.create: capacity < 1";
  if max_depth < 0 then invalid_arg "Pr_arena.create: max_depth < 0";
  if max_depth > bits_fine then invalid_arg "Pr_arena.create: max_depth > 42";
  if reserve < 0 then invalid_arg "Pr_arena.create: reserve < 0";
  let hist = Array.make (capacity + 1) 0 in
  hist.(0) <- 1;
  let pcap = max reserve 16 in
  let backing, seg_dir =
    match backing with
    | Heap -> (Heap, None)
    | Mmap { dir } -> (
      let sub =
        Filename.concat dir
          (Printf.sprintf "arena-%d-%d" (Unix.getpid ())
             (Atomic.fetch_and_add arena_counter 1))
      in
      try
        mkdir_p sub;
        (Mmap { dir = sub }, Some sub)
      with Unix.Unix_error _ | Sys_error _ -> (Heap, None))
  in
  let t =
    {
      capacity;
      max_depth;
      backing;
      seg_dir;
      seg_bytes = [];
      nodes = 1;
      child = Array.make 16 (-1);
      count = Array.make 16 0;
      head = Array.make 16 (-1);
      size = 0;
      (* Uninitialized is fine: slots are written before [size] admits
         them to any read path. *)
      xs = heap_f 0;
      ys = heap_f 0;
      next = heap_i 0;
      leaves = 1;
      internals = 0;
      height = 0;
      hist;
      slots = 0;
      free_slot = -1;
      free_node = -1;
      path = Array.make (max_depth + 1) 0;
      depth_count =
        (let dc = Array.make (max_depth + 1) 0 in
         dc.(0) <- 1;
         dc);
      qbuf = heap_f 2;
    }
  in
  t.xs <- alloc_f t "xs" pcap;
  t.ys <- alloc_f t "ys" pcap;
  t.next <- alloc_i t "next" pcap;
  t

let capacity t = t.capacity
let max_depth t = t.max_depth
let backing t = t.backing
let size t = t.size
let is_empty t = t.size = 0
let slot_high_water t = t.slots
let leaf_count t = t.leaves
let internal_count t = t.internals
let height t = t.height
let occupancy_histogram t = Array.copy t.hist
let average_occupancy t = float_of_int t.size /. float_of_int t.leaves

(* Estimated peak resident bytes of a bulk build: five 8-byte columns —
   the three point columns, the sort's key column and its scratch,
   which holds at most n entries — and a generous bound on the node
   arrays. Advisory — the CLI sums it over the builds that can run at
   once and checks that against available memory. *)
let bulk_footprint ~capacity ~n =
  if capacity < 1 then invalid_arg "Pr_arena.bulk_footprint: capacity < 1";
  if n < 0 then invalid_arg "Pr_arena.bulk_footprint: n < 0";
  let n = max n 1 in
  let columns = 5 * 8 * n in
  let leaves = 1 + ((n + capacity - 1) / capacity) in
  let nodes = 1 + (8 * leaves) in
  columns + (3 * 8 * nodes)

(* Column growth — the only allocation on the insert path. Mmap-backed
   columns remap the same segment file at the larger size, which
   preserves contents; the blit below is then a self-copy of identical
   bytes, harmless, and it is what carries the data for heap columns
   (including an mmap arena that degraded to heap mid-life). *)

let grow_points t needed =
  let cap = ref (max 16 (Bigarray.Array1.dim t.xs)) in
  while !cap < needed do
    cap := !cap * 2
  done;
  let cap = !cap in
  let xs = alloc_f t "xs" cap
  and ys = alloc_f t "ys" cap
  and next = alloc_i t "next" cap in
  let open Bigarray.Array1 in
  (* Copy up to the slot high-water mark, not [size]: freed slots below
     it carry the free list through [next] and must survive growth. *)
  if t.slots > 0 then begin
    blit (sub t.xs 0 t.slots) (sub xs 0 t.slots);
    blit (sub t.ys 0 t.slots) (sub ys 0 t.slots);
    blit (sub t.next 0 t.slots) (sub next 0 t.slots)
  end;
  t.xs <- xs;
  t.ys <- ys;
  t.next <- next

(* Node tables that already hold [needed] ids stay as they are; others
   grow to [needed] ids, and at least double. *)
let grow_nodes t needed =
  let cap = Array.length t.child in
  if needed > cap then begin
    let cap = max needed (2 * cap) in
    let child = Array.make cap (-1)
    and count = Array.make cap 0
    and head = Array.make cap (-1) in
    Array.blit t.child 0 child 0 t.nodes;
    Array.blit t.count 0 count 0 t.nodes;
    Array.blit t.head 0 head 0 t.nodes;
    t.child <- child;
    t.count <- count;
    t.head <- head
  end

(* Allocate four consecutive children, returned as their base id: a
   freed 4-block off the free list when one exists (so churn splits
   allocate nothing), else a bump allocation. Fresh ids are empty
   leaves (child -1, count 0, head -1) — the reset below restores that
   state for recycled blocks too. *)
let alloc_children t =
  let base =
    if t.free_node >= 0 then begin
      let b = t.free_node in
      t.free_node <- t.child.(b);
      b
    end
    else begin
      let b = t.nodes in
      if b + 4 > Array.length t.child then grow_nodes t (b + 4);
      t.nodes <- b + 4;
      b
    end
  in
  t.child.(base) <- -1;
  t.child.(base + 1) <- -1;
  t.child.(base + 2) <- -1;
  t.child.(base + 3) <- -1;
  t.count.(base) <- 0;
  t.count.(base + 1) <- 0;
  t.count.(base + 2) <- 0;
  t.count.(base + 3) <- 0;
  t.head.(base) <- -1;
  t.head.(base + 1) <- -1;
  t.head.(base + 2) <- -1;
  t.head.(base + 3) <- -1;
  base

(* Register a freshly created leaf of occupancy [count] at [depth]. *)
let note_leaf t depth count =
  t.leaves <- t.leaves + 1;
  let bucket = if count < t.capacity then count else t.capacity in
  t.hist.(bucket) <- t.hist.(bucket) + 1;
  t.depth_count.(depth) <- t.depth_count.(depth) + 1;
  if depth > t.height then t.height <- depth

(* Deregister a leaf of occupancy [count] at [depth] — the inverse of
   [note_leaf], except that [height] is not lowered here: callers that
   can shrink the tree (merges) re-derive it from [depth_count] once
   the dust settles. *)
let drop_leaf t depth count =
  t.leaves <- t.leaves - 1;
  let bucket = if count < t.capacity then count else t.capacity in
  t.hist.(bucket) <- t.hist.(bucket) - 1;
  t.depth_count.(depth) <- t.depth_count.(depth) - 1

(* The fine (42-bit) ordinates of a stored slot, computed on demand from
   the float columns — exact, the multiply only shifts the exponent.
   They take the slot, not the coordinates, so no float crosses a call.
   No code is stored per slot: a stored Morton word made churn no
   faster and cost 8 bytes a point in every arena and epoch copy. *)
let fine_x t slot = int_of_float (t.xs.{slot} *. fine_scale)
let fine_y t slot = int_of_float (t.ys.{slot} *. fine_scale)

(* The child pair of fine ordinates at [depth] < [bits_fine]:
   (y bit << 1) | x bit. *)
let pair_fine qx qy depth =
  let sh = bits_fine - 1 - depth in
  (((qy lsr sh) land 1) lsl 1) lor ((qx lsr sh) land 1)

(* Absorb [slot] into leaf [node] at [depth], maintaining histogram and
   leaf bookkeeping. Returns [true] when the leaf overflowed (it has
   already been deregistered) and the caller must split it. *)
let absorb t node depth slot =
  let c = t.count.(node) in
  let old_bucket = if c < t.capacity then c else t.capacity in
  t.next.{slot} <- t.head.(node);
  t.head.(node) <- slot;
  let c = c + 1 in
  t.count.(node) <- c;
  if c <= t.capacity || depth >= t.max_depth then begin
    t.hist.(old_bucket) <- t.hist.(old_bucket) - 1;
    let bucket = if c < t.capacity then c else t.capacity in
    t.hist.(bucket) <- t.hist.(bucket) + 1;
    false
  end
  else begin
    t.leaves <- t.leaves - 1;
    t.hist.(old_bucket) <- t.hist.(old_bucket) - 1;
    t.depth_count.(depth) <- t.depth_count.(depth) - 1;
    true
  end

(* Relink an over-full leaf's chain onto the four fresh children at
   [base], keyed by each slot's fine ordinates at [depth]. Ints only. *)
let rec distribute t base depth slot =
  if slot >= 0 then begin
    let nxt = t.next.{slot} in
    let c = base + pair_fine (fine_x t slot) (fine_y t slot) depth in
    t.next.{slot} <- t.head.(c);
    t.head.(c) <- slot;
    t.count.(c) <- t.count.(c) + 1;
    distribute t base depth nxt
  end

(* Split an over-full, deregistered former leaf [node] at [depth]
   (< max_depth), and any child that is still over-full in turn. *)
let rec split t node depth =
  t.internals <- t.internals + 1;
  Probe.builder_split ~depth;
  let base = alloc_children t in
  let chain = t.head.(node) in
  t.child.(node) <- base;
  t.head.(node) <- -1;
  (* [t.count.(node)] keeps the overflowed chain total: with subtree
     counts it is exactly the new internal node's population. *)
  distribute t base depth chain;
  let cdepth = depth + 1 in
  for i = 0 to 3 do
    let c = base + i in
    let cc = t.count.(c) in
    if cc <= t.capacity || cdepth >= t.max_depth then note_leaf t cdepth cc
    else split t c cdepth
  done

(* Descend by the fine ordinates [qx], [qy] from the root — ints only,
   so a no-split insert allocates nothing. The equivalence with float
   midpoints holds level for level: the cell midpoint at depth d <= 41
   is the dyadic k/2^(d+1), and [x >= k/2^(d+1)] iff bit (41 - d) of
   [floor (x * 2^42)] is set, given the shared cell prefix. An internal
   node lies above [max_depth] <= 42, so its bit always exists. *)
let rec insert_from t node depth qx qy slot =
  let base = t.child.(node) in
  if base >= 0 then begin
    (* Subtree counts: every internal node on the descent gains the
       point. *)
    t.count.(node) <- t.count.(node) + 1;
    insert_from t (base + pair_fine qx qy depth) (depth + 1) qx qy slot
  end
  else if absorb t node depth slot then split t node depth

let insert t p =
  if not (Point.in_unit_square p) then
    invalid_arg "Pr_arena.insert: point outside bounds";
  Probe.builder_insert ();
  (* A freed slot is reused before the high-water mark moves, so a
     delete/insert steady state never grows a column. *)
  let slot =
    if t.free_slot >= 0 then begin
      let s = t.free_slot in
      t.free_slot <- t.next.{s};
      s
    end
    else begin
      if t.slots >= Bigarray.Array1.dim t.xs then grow_points t (t.slots + 1);
      let s = t.slots in
      t.slots <- s + 1;
      s
    end
  in
  t.size <- t.size + 1;
  let x = p.Point.x and y = p.Point.y in
  t.xs.{slot} <- x;
  t.ys.{slot} <- y;
  insert_from t 0 0
    (int_of_float (x *. fine_scale))
    (int_of_float (y *. fine_scale))
    slot

let insert_all t ps = List.iter (insert t) ps

(* Deletes. [delete] removes one stored occurrence of a point: locate
   its leaf by the same integer descent as [insert] — recording the
   root-to-leaf node ids in the preallocated [path] scratch — unlink
   the slot from the leaf's intrusive chain, then merge ancestors back
   into leaves while their subtree population has fallen to at most
   [capacity]. Freed slots and node 4-blocks go on the intrusive free
   lists, so a delete (and the reinsert that reuses what it freed)
   touches nothing but the existing columns: zero minor-heap words on
   the no-merge path, same claim as insert, enforced by the alloc
   tests.

   The merge check at an ancestor inspects only its four children: if
   any child is internal, that child's subtree alone holds more than
   [capacity] points — every internal node does: splits create them
   over-full, inserts only add, and eager merging here removes any
   internal node that drops to [capacity] — so the ancestor cannot
   collapse either and the upward walk stops. That early exit keeps
   the post-delete walk O(1) per level, and the maintained invariant
   is exactly canonicality: a node is internal iff more than
   [capacity] live points lie under it, the same shape a fresh build
   of the survivors produces. *)

(* Descend to the leaf whose cell contains the fine ordinates [qx],
   [qy], writing every visited node id (the leaf included) into
   [t.path] and returning the leaf depth: [insert_from]'s walk. *)
let rec locate t node depth qx qy =
  t.path.(depth) <- node;
  let base = t.child.(node) in
  if base < 0 then depth
  else locate t (base + pair_fine qx qy depth) (depth + 1) qx qy

(* Unlink the first slot in [leaf]'s chain equal to the query point in
   [t.qbuf] and return it, or -1 when absent. Exact float comparison:
   distinct floats can share a fine cell, so ordinates cannot stand in
   for the coordinates here. The query point travels in [t.qbuf], an
   unboxed Bigarray, never as (boxed) float arguments. *)
let rec unlink_slot t leaf prev slot =
  if slot < 0 then -1
  else if t.xs.{slot} = t.qbuf.{0} && t.ys.{slot} = t.qbuf.{1} then begin
    if prev < 0 then t.head.(leaf) <- t.next.{slot}
    else t.next.{prev} <- t.next.{slot};
    slot
  end
  else unlink_slot t leaf slot t.next.{slot}

let rec chain_tail t slot =
  let n = t.next.{slot} in
  if n < 0 then slot else chain_tail t n

(* Collapse the four leaf children of [parent] (at [depth]) back into a
   leaf: concatenate their chains in child (Morton pair) order, push
   the 4-block onto the node free list, and fix every counter except
   [height] (the caller re-derives it from [depth_count]). *)
let merge_node t parent depth =
  Probe.arena_merge ();
  let base = t.child.(parent) in
  let cdepth = depth + 1 in
  let head = ref (-1) and tail = ref (-1) in
  let total = ref 0 in
  for i = 0 to 3 do
    let c = base + i in
    drop_leaf t cdepth t.count.(c);
    total := !total + t.count.(c);
    let h = t.head.(c) in
    if h >= 0 then begin
      if !tail < 0 then head := h else t.next.{!tail} <- h;
      tail := chain_tail t h
    end;
    t.child.(c) <- -1;
    t.count.(c) <- 0;
    t.head.(c) <- -1
  done;
  t.internals <- t.internals - 1;
  t.child.(parent) <- -1;
  t.head.(parent) <- !head;
  t.count.(parent) <- !total;
  note_leaf t depth !total;
  t.child.(base) <- t.free_node;
  t.free_node <- base

(* Walk the recorded path upward from the deleted point's leaf (at
   [depth]), merging while the parent's children are four leaves whose
   total occupancy fits one; the first ancestor that cannot merge ends
   the walk (see the invariant argument above). *)
let rec merge_up t depth =
  if depth > 0 then begin
    let parent = t.path.(depth - 1) in
    let base = t.child.(parent) in
    if
      (* The parent's subtree count is the four children's total —
         exactly the occupancy of the merged leaf. *)
      t.count.(parent) <= t.capacity
      && t.child.(base) < 0
      && t.child.(base + 1) < 0
      && t.child.(base + 2) < 0
      && t.child.(base + 3) < 0
    then begin
      merge_node t parent (depth - 1);
      merge_up t (depth - 1)
    end
  end

let delete t p =
  let x = p.Point.x and y = p.Point.y in
  if not (Point.in_unit_square p) then false
  else begin
    t.qbuf.{0} <- x;
    t.qbuf.{1} <- y;
    let depth =
      locate t 0 0
        (int_of_float (x *. fine_scale))
        (int_of_float (y *. fine_scale))
    in
    let leaf = t.path.(depth) in
    let slot = unlink_slot t leaf (-1) t.head.(leaf) in
    if slot < 0 then false
    else begin
      Probe.arena_delete ();
      t.next.{slot} <- t.free_slot;
      t.free_slot <- slot;
      t.size <- t.size - 1;
      let c = t.count.(leaf) in
      let old_bucket = if c < t.capacity then c else t.capacity in
      let c = c - 1 in
      t.count.(leaf) <- c;
      t.hist.(old_bucket) <- t.hist.(old_bucket) - 1;
      let bucket = if c < t.capacity then c else t.capacity in
      t.hist.(bucket) <- t.hist.(bucket) + 1;
      (* Subtree counts: every recorded ancestor loses the point. The
         leaf itself (path.(depth)) was decremented above. *)
      for d = 0 to depth - 1 do
        let a = t.path.(d) in
        t.count.(a) <- t.count.(a) - 1
      done;
      merge_up t depth;
      while t.height > 0 && t.depth_count.(t.height) = 0 do
        t.height <- t.height - 1
      done;
      true
    end
  end

let update t p q =
  if not (Point.in_unit_square q) then
    invalid_arg "Pr_arena.update: replacement point outside bounds";
  delete t p
  && begin
       insert t q;
       true
     end

let of_points ?max_depth ~capacity ps =
  let t = create ?max_depth ~capacity () in
  Probe.arena_build `Incremental ~inserts:(List.length ps) (fun () ->
      insert_all t ps);
  t

(* Bulk builds. Every block of a PR quadtree splits at its midpoint, so
   a bulk build is one sort of the points by Morton key, and the tree's
   top levels are the top bits of that key. [build_grouped] below is the
   one bulk build: a histogram of those bits splits the top
   [group_levels] levels at once, and one kernel sorts each subtree
   below them — a top-down recursion that radix sorts the group's keys
   MSD-first, two code bits per level (four in large ranges), and emits
   each node the moment its range is partitioned, so leaves appear left
   to right in Z order and parents link as the recursion returns. The
   sort stops exactly where the tree does, so ranges that are already
   leaf-sized never pay for their remaining code bits.

   The kernel moves one word per point: a window of [window_levels]
   levels of the Morton key above a [slot_bits]-bit slot field, 62 bits,
   a non-negative OCaml int. The fine grid's 42 levels take three
   windows, levels 0..14, 15..29 and 30..44; the last reads zeros past
   level 41, where no split falls ([max_depth] <= 42). A range that
   reaches the end of its window is one cell, so every word in it holds
   the same window: each is reloaded in place with the next window over
   the same slot, and the partition continues at that depth. *)

let window_levels = 15
let window_mask = (1 lsl window_levels) - 1
let slot_bits = 32
let slot_mask = (1 lsl slot_bits) - 1

(* The fine ordinates shifted up by [pad] have a bit for each of the
   three windows' 45 levels, zero at levels 42 .. 44. *)
let pad = (3 * window_levels) - bits_fine

(* The window of levels [first] .. [first] + 14 of a slot's point: bits
   44 - [first] down to 30 - [first] of each padded ordinate,
   interleaved. *)
let window t slot first =
  let sh = (2 * window_levels) - first in
  Morton.interleave
    (((fine_x t slot lsl pad) lsr sh) land window_mask)
    (((fine_y t slot lsl pad) lsr sh) land window_mask)

(* Leaf emission, in one of two slot numberings, from a buffer holding
   sort position p at [order.{p - ob}]. In place ([z] false): chain the
   slots of positions [lo, hi) onto leaf [node], so traversal yields
   them in sort order. Z-ordered ([z] true, see [bulk_zordered]): the
   leaf takes the consecutive slots [lo, hi) — sort positions are
   Z-order ranks — and each slot k records, as [zpending], the slot its
   word names, whose point it must receive, and whether it ends the
   chain; [settle] then moves the points and writes the final links.
   Either way the chain visits the points in sort order, so the two
   numberings hold the same tree. *)
let[@inline] zpending src last = -2 - ((src lsl 1) lor last)

let emit_leaf t z (order : iarr) ob lo hi node depth =
  let n = hi - lo in
  t.count.(node) <- n;
  if n > 0 then begin
    if z then begin
      for k = lo to hi - 2 do
        t.next.{k} <- zpending (order.{k - ob} land slot_mask) 0
      done;
      t.next.{hi - 1} <- zpending (order.{hi - 1 - ob} land slot_mask) 1;
      t.head.(node) <- lo
    end
    else begin
      for k = lo - ob to hi - 2 - ob do
        t.next.{order.{k} land slot_mask} <- order.{k + 1} land slot_mask
      done;
      t.next.{order.{hi - 1 - ob} land slot_mask} <- -1;
      t.head.(node) <- order.{lo - ob} land slot_mask
    end
  end;
  note_leaf t depth n

(* The grouped levels: one bucket per cell [group_levels] below a
   step's root, 256 of them. At the root of the tree they are keyed by
   the top eight bits of the first window. *)
let group_levels = 4
let group_buckets = 1 lsl (2 * group_levels)
let group_shift = 2 * (window_levels - group_levels)

(* The smallest range a [step] splits: a step pays for clearing and
   walking 256 buckets whatever the range's size. On 2^20-point builds
   a bound of 256 and one of 1,024 timed the same and 4,096 was
   slower. *)
let step_min = 1024

(* The tables of one four-level split: [start] holds the bucket bases
   (then the scatter's cursors), [group] maps each bucket to the bucket
   whose cursor it scatters through, and [ranges] lists the split's
   parts in walk order, four entries each: lo, hi, node, depth. *)
type sieve = {
  start : int array;  (* group_buckets + 1 *)
  group : int array;  (* group_buckets *)
  ranges : int array;  (* 4 * group_buckets *)
  mutable nranges : int;
}

let sieve () =
  {
    start = Array.make (group_buckets + 1) 0;
    group = Array.make group_buckets 0;
    ranges = Array.make (4 * group_buckets) 0;
    nranges = 0;
  }

(* Split the levels from [depth] down to [top] = [depth] +
   [group_levels] on the histogram alone, starting at bucket [b], whose
   cell is [node]: allocate the nodes of every split and record each
   part in [s.ranges] — a subtree rooted at [top], or a leaf that forms
   above it. Such a leaf spans a run of buckets, which all scatter
   through its first bucket's cursor, so its points keep their order. *)
let rec walk t s b depth node top =
  let span = 1 lsl (2 * (top - depth)) in
  let lo = s.start.(b) and hi = s.start.(b + span) in
  if depth = top || hi - lo <= t.capacity || depth >= t.max_depth then begin
    Array.fill s.group b span b;
    let r = 4 * s.nranges in
    s.ranges.(r) <- lo;
    s.ranges.(r + 1) <- hi;
    s.ranges.(r + 2) <- node;
    s.ranges.(r + 3) <- depth;
    s.nranges <- s.nranges + 1
  end
  else begin
    t.internals <- t.internals + 1;
    Probe.builder_split ~depth;
    let base = alloc_children t in
    t.child.(node) <- base;
    t.count.(node) <- hi - lo;
    for i = 0 to 3 do
      walk t s (b + (i * (span / 4))) (depth + 1) (base + i) top
    done
  end

(* The kernel's state: the numbering, the two-bit counters, and a
   [sieve] per nesting level of [step], made at its first use. *)
type packed = { z : bool; cnt : int array; sieves : sieve option array }

let packed z =
  {
    z;
    cnt = Array.make 4 0;
    (* Steps root at depth <= 41, and a nested step lies [group_levels]
       or more below its parent: depth / group_levels is distinct along
       any nesting. *)
    sieves = Array.make (((bits_fine - 1) / group_levels) + 1) None;
  }

(* Sort positions [lo, hi) of [src] (position p at [src.{p - sb}]),
   scattering through [dst] (at [dst.{p - db}]), as the subtree of
   [node] at [depth]; the words hold the window of levels [wend] - 15
   to [wend] - 1. Each call of a group's sort handles a part of the
   group's positions [glo, ghi), and each buffer's base places that
   part inside it: base 0 in the n-entry key column, base [glo] in a
   scratch column at least [ghi - glo] wide. So [lo - base, hi - base)
   lies inside either buffer, which is what lets the five loops below
   go unchecked. *)
let rec build_packed t k (src : iarr) sb (dst : iarr) db lo hi node depth wend
    =
  if hi - lo <= t.capacity || depth >= t.max_depth then
    emit_leaf t k.z src sb lo hi node depth
  else if depth = wend then begin
    (* Unchecked: i runs over [lo - sb, hi - sb). *)
    for i = lo - sb to hi - 1 - sb do
      let slot = Bigarray.Array1.unsafe_get src i land slot_mask in
      Bigarray.Array1.unsafe_set src i
        ((window t slot wend lsl slot_bits) lor slot)
    done;
    build_packed t k src sb dst db lo hi node depth (wend + window_levels)
  end
  else if hi - lo >= step_min && depth + group_levels <= wend then
    step t k src sb dst db lo hi node depth wend
  else begin
    t.internals <- t.internals + 1;
    Probe.builder_split ~depth;
    let base = alloc_children t in
    t.child.(node) <- base;
    t.count.(node) <- hi - lo;
    let sh = slot_bits + (2 * (wend - 1 - depth)) in
    let cnt = k.cnt in
    cnt.(0) <- 0;
    cnt.(1) <- 0;
    cnt.(2) <- 0;
    cnt.(3) <- 0;
    (* Unchecked: i runs over [lo - sb, hi - sb). *)
    for i = lo - sb to hi - 1 - sb do
      let d = (Bigarray.Array1.unsafe_get src i lsr sh) land 3 in
      cnt.(d) <- cnt.(d) + 1
    done;
    let e1 = lo + cnt.(0) in
    let e2 = e1 + cnt.(1) in
    let e3 = e2 + cnt.(2) in
    cnt.(0) <- lo - db;
    cnt.(1) <- e1 - db;
    cnt.(2) <- e2 - db;
    cnt.(3) <- e3 - db;
    (* Unchecked: i runs over [lo - sb, hi - sb), and the four cursors
       start at the bases of the counts just taken from the same words,
       so p runs over [lo - db, hi - db). *)
    for i = lo - sb to hi - 1 - sb do
      let v = Bigarray.Array1.unsafe_get src i in
      let d = (v lsr sh) land 3 in
      let p = cnt.(d) in
      Bigarray.Array1.unsafe_set dst p v;
      cnt.(d) <- p + 1
    done;
    let cdepth = depth + 1 in
    build_packed t k dst db src sb lo e1 base cdepth wend;
    build_packed t k dst db src sb e1 e2 (base + 1) cdepth wend;
    build_packed t k dst db src sb e2 e3 (base + 2) cdepth wend;
    build_packed t k dst db src sb e3 hi (base + 3) cdepth wend
  end

(* Levels [depth] .. [depth] + 3 of a range that splits at [depth], all
   inside the words' window, in one pass: histogram their eight key
   bits, [walk] them as the top level is walked, scatter stably through
   the walk's cursors, then sort each part. Stable, so each part holds
   its points in the order four two-bit partitions would leave them. *)
and step t k (src : iarr) sb (dst : iarr) db lo hi node depth wend =
  let level = depth / group_levels in
  let s =
    match k.sieves.(level) with
    | Some s -> s
    | None ->
      let s = sieve () in
      k.sieves.(level) <- Some s;
      s
  in
  let start = s.start and mask = group_buckets - 1 in
  let sh = slot_bits + (2 * (wend - group_levels - depth)) in
  Array.fill start 0 (group_buckets + 1) 0;
  (* Unchecked: i runs over [lo - sb, hi - sb). *)
  for i = lo - sb to hi - 1 - sb do
    let b = ((Bigarray.Array1.unsafe_get src i lsr sh) land mask) + 1 in
    start.(b) <- start.(b) + 1
  done;
  start.(0) <- lo;
  for b = 1 to group_buckets do
    start.(b) <- start.(b) + start.(b - 1)
  done;
  s.nranges <- 0;
  walk t s 0 depth node (depth + group_levels);
  for b = 0 to group_buckets - 1 do
    start.(b) <- start.(b) - db
  done;
  (* Unchecked: i runs over [lo - sb, hi - sb), and each part the walk
     recorded scatters through its first bucket's cursor, which starts
     at the part's first position less [db] and takes exactly the
     part's buckets' counts of the same words, so p runs over
     [lo - db, hi - db). *)
  for i = lo - sb to hi - 1 - sb do
    let v = Bigarray.Array1.unsafe_get src i in
    let g = s.group.((v lsr sh) land mask) in
    let p = start.(g) in
    Bigarray.Array1.unsafe_set dst p v;
    start.(g) <- p + 1
  done;
  for r = 0 to s.nranges - 1 do
    let r = 4 * r in
    build_packed t k dst db src sb s.ranges.(r) s.ranges.(r + 1)
      s.ranges.(r + 2) s.ranges.(r + 3) wend
  done

(* The root leaf registered by [create] is replaced wholesale by a bulk
   build's own registration. *)
let unregister_root t =
  t.leaves <- 0;
  t.hist.(0) <- 0;
  t.height <- 0;
  t.depth_count.(0) <- 0

let window_scale = float_of_int (1 lsl window_levels)

(* The first window of point [i] of the columns [xs], [ys] — the sort
   key of the top 15 levels, [window] at level 0 since the multiply is
   exact — after checking that the point lies in the unit square: the
   bulk build's first pass. The encode is written out here rather than
   routed through a function of the two coordinates: a float passed to
   a non-inlined call is boxed, and two boxes per point is exactly the
   O(n) minor-heap traffic the bulk path promises not to have (the
   alloc tests measure this pass). *)
let first_window (xs : farr) (ys : farr) i =
  let x = xs.{i} and y = ys.{i} in
  if not (x >= 0.0 && x < 1.0 && y >= 0.0 && y < 1.0) then
    invalid_arg "Pr_arena bulk build: point outside bounds";
  Morton.interleave
    (int_of_float (x *. window_scale))
    (int_of_float (y *. window_scale))

(* Apply a group's recorded permutation in place, one cycle at a time
   and without scratch: slot k takes the point at the position its
   [zpending] entry names, and gets its final chain link — which also
   marks it settled, links being >= -1 and pending entries <= -2. *)
let settle t lo hi =
  for k = lo to hi - 1 do
    if t.next.{k} <= -2 then begin
      let x = t.xs.{k} and y = t.ys.{k} in
      let s = ref k and closed = ref false in
      while not !closed do
        let j = !s in
        let e = -2 - t.next.{j} in
        let src = e lsr 1 in
        t.next.{j} <- (if e land 1 = 1 then -1 else j + 1);
        if src = k then begin
          t.xs.{j} <- x;
          t.ys.{j} <- y;
          closed := true
        end
        else begin
          t.xs.{j} <- t.xs.{src};
          t.ys.{j} <- t.ys.{src};
          s := src
        end
      done
    end
  done

(* The one bulk build: the [n] points of [sx], [sy] into the fresh
   arena [t], in five steps.

   1. The node tables grow to 4⌈n/m⌉ ids, the size a uniform build
      fills anyway, so uniform builds never regrow them mid-sort. One
      pass then checks each point, parks its first window in [next] —
      no link is read before emission — and histograms the top
      [group_levels] levels.
   2. [walk] splits those levels on the histogram alone, allocating
      their nodes, and records each group in walk order: a subtree
      rooted at depth [group_levels], or a leaf that forms above it.
   3. A stable scatter writes each point's sort word at its position in
      its group of the n-entry key column. The in-place build ([z]
      false) keys the point's own slot, its input rank, and leaves the
      coordinates where they are. The Z-ordered one ([z] true, see
      [bulk_zordered]) moves the coordinates from the source to the
      position, which becomes the slot: the kernel's window reloads
      read coordinates by slot, so they must be in place before any
      group sorts, and a gather after the sort would read the source at
      random.
   4. The kernel sorts each group from its root, straight into the
      arena in walk order, ping-ponging between the group's slice of
      the key column and one scratch column as wide as the widest
      group. The top levels' nodes come first, then each group's
      subtree in walk order.
   5. A Z-ordered group then [settle]s its permutation. A group of 2^20
      uniform points holds about 4k of them, 96 KB of columns, so the
      permutation runs in cache.

   The in-place emission writes links only after the scatter has read
   every parked window. Every partition is stable, so each leaf's chain
   keeps input order in both numberings: the tree, the node ids, each
   chain's sequence of points, and so [freeze], [points] and every
   query answer are the same; only slot numbers differ. *)
let build_grouped t ~z n (sx : farr) (sy : farr) =
  unregister_root t;
  t.size <- n;
  t.slots <- n;
  grow_nodes t (4 * ((n + t.capacity - 1) / t.capacity));
  let top = sieve () in
  let start = top.start in
  for i = 0 to n - 1 do
    let code = first_window sx sy i in
    t.next.{i} <- code;
    let b = (code lsr group_shift) + 1 in
    start.(b) <- start.(b) + 1
  done;
  for b = 1 to group_buckets do
    start.(b) <- start.(b) + start.(b - 1)
  done;
  walk t top 0 0 0 group_levels;
  let groups = top.ranges and ngroups = top.nranges in
  let keys = alloc_i t "keys" (max n 1) in
  (* The walk has read [start]; it now holds the scatter's cursors. *)
  for i = 0 to n - 1 do
    let code = t.next.{i} in
    let g = top.group.(code lsr group_shift) in
    let p = start.(g) in
    start.(g) <- p + 1;
    let slot =
      if z then begin
        t.xs.{p} <- sx.{i};
        t.ys.{p} <- sy.{i};
        p
      end
      else i
    in
    keys.{p} <- (code lsl slot_bits) lor slot
  done;
  let widest = ref 0 in
  for g = 0 to ngroups - 1 do
    widest := max !widest (groups.((4 * g) + 1) - groups.(4 * g))
  done;
  let scratch = alloc_i t "scratch" (max !widest 1) and k = packed z in
  for g = 0 to ngroups - 1 do
    let lo = groups.(4 * g) and hi = groups.((4 * g) + 1) in
    build_packed t k keys 0 scratch lo lo hi
      groups.((4 * g) + 2)
      groups.((4 * g) + 3)
      window_levels;
    if z then settle t lo hi
  done

(* Run a bulk build's body over its fresh arena [t] and return [t]. A
   body that raises — a point outside the unit square, a failing fill —
   releases the arena first: its caller never receives it, so nothing
   else could delete its segment files. *)
let building t body =
  match body () with
  | () -> t
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    release t;
    Printexc.raise_with_backtrace e bt

(* The bulk entries' point count, checked before anything is allocated:
   a sort word keeps a slot in [slot_bits] bits. *)
let check_bulk_n entry n =
  if n < 0 then invalid_arg ("Pr_arena." ^ entry ^ ": n < 0");
  if n > slot_mask then invalid_arg ("Pr_arena." ^ entry ^ ": n >= 2^32")

let bulk_of_columns ?max_depth ?backing ?(reserve = 0) ~capacity ~n fill =
  check_bulk_n "bulk_of_columns" n;
  let t = create ?max_depth ?backing ~reserve:(max n reserve) ~capacity () in
  building t (fun () ->
      Probe.arena_build `Bulk ~inserts:n (fun () ->
          fill t.xs t.ys;
          build_grouped t ~z:false n t.xs t.ys;
          drop_segments t sort_segments))

let of_points_bulk ?max_depth ?backing ?reserve ~capacity ps =
  bulk_of_columns ?max_depth ?backing ?reserve ~capacity ~n:(List.length ps)
    (fun xs ys ->
      List.iteri
        (fun i (p : Point.t) ->
          xs.{i} <- p.x;
          ys.{i} <- p.y)
        ps)

let bulk_of_fn ?max_depth ?backing ~capacity ~n f =
  check_bulk_n "bulk_of_fn" n;
  bulk_of_columns ?max_depth ?backing ~capacity ~n (fun xs ys ->
      for i = 0 to n - 1 do
        let p : Point.t = f i in
        xs.{i} <- p.x;
        ys.{i} <- p.y
      done)

(* The served arena's build: the in-place one numbers slots by input
   rank, so the points of one leaf sit at unrelated slots and each costs
   its own cache lines in [xs], [ys] and [next]; here every leaf takes a
   run of consecutive slots, the runs in depth-first (Z) order. *)
let bulk_zordered ?max_depth ?backing ?(reserve = 0) ~capacity ~n
    (sx : column) (sy : column) =
  check_bulk_n "bulk_zordered" n;
  if Bigarray.Array1.dim sx < n || Bigarray.Array1.dim sy < n then
    invalid_arg "Pr_arena.bulk_zordered: a source column is shorter than n";
  let t = create ?max_depth ?backing ~reserve:(max n reserve) ~capacity () in
  building t (fun () ->
      Probe.arena_build `Bulk ~inserts:n (fun () ->
          build_grouped t ~z:true n sx sy;
          drop_segments t sort_segments))

let is_zordered t =
  let next_slot = ref 0 and ok = ref true in
  let rec go node =
    let base = t.child.(node) in
    if base >= 0 then
      for i = 0 to 3 do
        go (base + i)
      done
    else begin
      let s = ref t.head.(node) in
      for _ = 1 to t.count.(node) do
        if !s = !next_slot then begin
          incr next_slot;
          s := t.next.{!s}
        end
        else ok := false
      done;
      if !s <> -1 then ok := false
    end
  in
  go 0;
  !ok && !next_slot = t.size

(* Analysis paths. *)

let leaf_points t node =
  let rec go acc slot =
    if slot < 0 then acc
    else go ({ Point.x = t.xs.{slot}; y = t.ys.{slot} } :: acc) t.next.{slot}
  in
  (* Collect then reverse so the list follows chain order (for an
     incremental build: reverse insertion order). *)
  List.rev (go [] t.head.(node))

let fold_leaves t ~init ~f =
  let rec go acc node ~depth ~box =
    let base = t.child.(node) in
    if base < 0 then
      f acc ~depth ~box ~points:(leaf_points t node) ~count:t.count.(node)
    else begin
      let acc = ref acc in
      for q = 0 to 3 do
        acc :=
          go !acc
            (base + quad_pair.(q))
            ~depth:(depth + 1)
            ~box:(Box.child box (Quadrant.of_index q))
      done;
      !acc
    end
  in
  go init 0 ~depth:0 ~box:Box.unit

let iter_points t ~f =
  (* Walk the leaf chains, not the slot range: once points have been
     deleted, freed slots lie anywhere below the high-water mark and
     hold stale coordinates. *)
  let rec chase slot =
    if slot >= 0 then begin
      f { Point.x = t.xs.{slot}; y = t.ys.{slot} };
      chase t.next.{slot}
    end
  in
  let rec go node =
    let base = t.child.(node) in
    if base < 0 then chase t.head.(node)
    else
      for i = 0 to 3 do
        go (base + i)
      done
  in
  go 0

let points t =
  let acc = ref [] in
  iter_points t ~f:(fun p -> acc := p :: !acc);
  !acc

(* --- Arena-native query kernels --------------------------------------

   These walk the child-base table and the slot columns directly — no
   freeze to a boxed {!Pr_quadtree} per query — and mutate nothing the
   arena holds, so any number of domains may query one arena
   concurrently (the serving layer fans batches out over a shared epoch
   snapshot).

   One traversal per query kind. Count, range, nearest and k-NN each
   have one integer descent (nearest and k-NN share theirs,
   [ranked_walk], each with its own leaf scan), and every descent
   tallies the nodes it enters; the plain entry points and their
   [_visited] twins run the same walk. A node entered counts one; a
   pruned subtree, disjoint or contained, costs its root's test and
   nothing below (a containment drain walks chains, but that is answer
   emission, not traversal), so the counts line up with the
   partial-match cost the population analysis predicts. Only the
   [_visited] entries of count and range report the subtrees they
   pruned ([Probe.serve_pruned_subtrees]).

   Containment pruning. Every node carries its exact subtree population
   ([t.count]), so when the target box contains a node's whole cell the
   kernel answers for the subtree without testing a single point: a
   count adds the stored count in O(1) and a range drains the subtree's
   leaf chains with no per-point box test. Cost then tracks the
   visited-node frontier — the Curien–Joseph partial-match regime —
   instead of the answer's population. Cells are half-open on their
   high edges (exactly [Box.contains]'s convention, enforced by the
   [>= mid] distribution rule at every split), so cell ⊆ target reduces
   to four closed corner compares.

   Integer cell descent. Every cell is a dyadic square of the 2^-42
   grid, so the kernels carry cells as fine integer corners
   [(qx0, qy0)] with a side exponent, materializing the exact corner
   floats [k / 2^42] only for the float compares: no [Box.child] record
   per visited node. Those are the very floats [Box.child]'s midpoint
   cascade produces — dyadic corners at depth <= 42 are exactly
   representable — so every compare reads the floats {!Pr_quadtree}'s
   walks compare.

   Carrying the tally. The count descent returns its visit tally —
   register adds on the way back up — and adds its count and pruned
   subtrees into the domain's [tally] cell, touched only at contained
   subtrees and boundary leaves; the range descent returns its points
   and keeps its visit and pruned tallies in the cell. The cell is per
   domain, so a count allocates nothing — no closure, ref or tuple —
   and concurrent domains never share it. An entry point reads the
   fields it uses before the walk and puts them back after, so a walk
   that another query on the same domain interrupts (a signal handler,
   a finaliser) still reads its own difference. *)

type tally = { mutable hits : int; mutable visits : int; mutable pruned : int }

let tally = Domain.DLS.new_key (fun () -> { hits = 0; visits = 0; pruned = 0 })

(* Chain folds, threaded tail-recursively so the counting walk builds
   no closure and touches no ref cell. The target travels as the query
   box itself (one record per query, allocated by the caller), never as
   unpacked float arguments — floats crossing a call boundary would box
   on every leaf. For the same reason the kernels build answer points
   as record literals, never through [Point.make]: each project module
   is compiled separately, so a call into another one is never inlined
   and boxes both floats on the way.

   The count's point test has no branch: a boundary leaf's points fall
   either side of the box's edges unpredictably, so the four compares
   become 0/1 ints, and-ed and added. The box stays half-open, and a
   NaN edge fails its compare, so a NaN box counts nothing. *)
let rec count_chain t (target : Box.t) slot acc =
  if slot < 0 then acc
  else begin
    let x = t.xs.{slot} and y = t.ys.{slot} in
    let hit =
      Bool.to_int (x >= target.Box.xmin)
      land Bool.to_int (x < target.Box.xmax)
      land Bool.to_int (y >= target.Box.ymin)
      land Bool.to_int (y < target.Box.ymax)
    in
    count_chain t target t.next.{slot} (acc + hit)
  end

let rec filter_chain t (target : Box.t) slot acc =
  if slot < 0 then acc
  else begin
    let x = t.xs.{slot} and y = t.ys.{slot} in
    let acc =
      if
        x >= target.Box.xmin && x < target.Box.xmax && y >= target.Box.ymin
        && y < target.Box.ymax
      then { Point.x; y } :: acc
      else acc
    in
    filter_chain t target t.next.{slot} acc
  end

(* Cons a chain (head to tail) and a whole subtree (children in
   quadrant order NW, NE, SW, SE — pair ids 2, 3, 0, 1) onto [acc]:
   exactly the accumulation order of a walk that tests every point when
   every point passes, so pruning never reorders a result list. *)
let rec drain_chain t slot acc =
  if slot < 0 then acc
  else
    drain_chain t t.next.{slot} ({ Point.x = t.xs.{slot}; y = t.ys.{slot} } :: acc)

let rec drain_subtree t node acc =
  let base = t.child.(node) in
  if base < 0 then drain_chain t t.head.(node) acc
  else begin
    let acc = drain_subtree t (base + 2) acc in
    let acc = drain_subtree t (base + 3) acc in
    let acc = drain_subtree t (base + 0) acc in
    drain_subtree t (base + 1) acc
  end

(* The integer count descent. [shift] is the cell's side exponent on
   the fine grid (root: [bits_fine]); a child halves the side and
   offsets its corner by [hs]. Returns the nodes entered; the count and
   the pruned subtrees go into [s]. *)
let rec count_int t (target : Box.t) s node qx0 qy0 shift =
  let side = 1 lsl shift in
  let x0 = float_of_int qx0 *. inv_fine_scale
  and y0 = float_of_int qy0 *. inv_fine_scale
  and x1 = float_of_int (qx0 + side) *. inv_fine_scale
  and y1 = float_of_int (qy0 + side) *. inv_fine_scale in
  if
    x0 >= target.Box.xmax || target.Box.xmin >= x1 || y0 >= target.Box.ymax
    || target.Box.ymin >= y1
  then 1 (* disjoint *)
  else if
    target.Box.xmin <= x0 && x1 <= target.Box.xmax && target.Box.ymin <= y0
    && y1 <= target.Box.ymax
  then begin
    (* contained: the whole subtree in O(1) *)
    s.hits <- s.hits + t.count.(node);
    s.pruned <- s.pruned + 1;
    1
  end
  else begin
    let base = t.child.(node) in
    if base < 0 then begin
      s.hits <- count_chain t target t.head.(node) s.hits;
      1
    end
    else begin
      let h = shift - 1 in
      let hs = 1 lsl h in
      let v = count_int t target s (base + 2) qx0 (qy0 + hs) h in
      let v = v + count_int t target s (base + 3) (qx0 + hs) (qy0 + hs) h in
      let v = v + count_int t target s (base + 0) qx0 qy0 h in
      1 + v + count_int t target s (base + 1) (qx0 + hs) qy0 h
    end
  end

(* The range descent: the count's traversal, consing hits onto the
   returned list; visits and pruned subtrees go into [s]. *)
let rec range_int t (target : Box.t) s node qx0 qy0 shift acc =
  s.visits <- s.visits + 1;
  let side = 1 lsl shift in
  let x0 = float_of_int qx0 *. inv_fine_scale
  and y0 = float_of_int qy0 *. inv_fine_scale
  and x1 = float_of_int (qx0 + side) *. inv_fine_scale
  and y1 = float_of_int (qy0 + side) *. inv_fine_scale in
  if
    x0 >= target.Box.xmax || target.Box.xmin >= x1 || y0 >= target.Box.ymax
    || target.Box.ymin >= y1
  then acc
  else if
    target.Box.xmin <= x0 && x1 <= target.Box.xmax && target.Box.ymin <= y0
    && y1 <= target.Box.ymax
  then begin
    s.pruned <- s.pruned + 1;
    drain_subtree t node acc
  end
  else begin
    let base = t.child.(node) in
    if base < 0 then filter_chain t target t.head.(node) acc
    else begin
      let h = shift - 1 in
      let hs = 1 lsl h in
      let acc = range_int t target s (base + 2) qx0 (qy0 + hs) h acc in
      let acc = range_int t target s (base + 3) (qx0 + hs) (qy0 + hs) h acc in
      let acc = range_int t target s (base + 0) qx0 qy0 h acc in
      range_int t target s (base + 1) (qx0 + hs) qy0 h acc
    end
  end

let count_in_box t target =
  let s = Domain.DLS.get tally in
  let hits = s.hits and pruned = s.pruned in
  ignore (count_int t target s 0 0 0 bits_fine : int);
  let n = s.hits - hits in
  s.hits <- hits;
  s.pruned <- pruned;
  n

let count_in_box_visited t target =
  let s = Domain.DLS.get tally in
  let hits = s.hits and pruned = s.pruned in
  let visited = count_int t target s 0 0 0 bits_fine in
  let n = s.hits - hits and p = s.pruned - pruned in
  s.hits <- hits;
  s.pruned <- pruned;
  Probe.serve_pruned_subtrees p;
  (n, visited)

(* One range walk: its points, visits and pruned subtrees. *)
let range_walk t target =
  let s = Domain.DLS.get tally in
  let visits = s.visits and pruned = s.pruned in
  let pts = range_int t target s 0 0 0 bits_fine [] in
  let v = s.visits - visits and p = s.pruned - pruned in
  s.visits <- visits;
  s.pruned <- pruned;
  (pts, v, p)

let query_box t target =
  let pts, _, _ = range_walk t target in
  pts

let query_box_visited t target =
  let pts, visited, pruned = range_walk t target in
  Probe.serve_pruned_subtrees pruned;
  (pts, visited)

(* The closest-first descent nearest and k-NN share. [bound.(0)] is
   the query's pruning distance² — a flat float array, so reads and
   writes stay unboxed — and [scan node] scans a leaf's chain, lowering
   the bound as it finds closer points. A node is entered when its
   cell's clamp distance is below the bound; its children are visited
   closest first. Returns the nodes entered, as the count descent does.

   Cells travel as fine corners. The clamp distance is
   [Pr_quadtree.distance_sq_to_box]'s clamp form, bit for bit, on the
   exact dyadic corner floats; the four child distances, in quadrant
   order NW, NE, SW, SE, are ranked by rank4, written out inline
   because four float arguments crossing a non-inlined call box on
   every internal node (this compiler is not flambda). Each quadrant's
   rank is how many quadrants sort strictly before it (distance, ties
   by quadrant index — the order of a stable sort of the quadrants by
   distance, which is how {!Pr_quadtree.nearest} ranks them), and the
   permutation packs into one int, two bits per rank;
   [(perm lsr (2 * i)) land 3] decodes visit position [i]. *)
let ranked_walk t (p : Point.t) (bound : float array) scan =
  let px = p.Point.x and py = p.Point.y in
  let rec go node qx0 qy0 shift =
    let side = 1 lsl shift in
    let x0 = float_of_int qx0 *. inv_fine_scale
    and y0 = float_of_int qy0 *. inv_fine_scale
    and x1 = float_of_int (qx0 + side) *. inv_fine_scale
    and y1 = float_of_int (qy0 + side) *. inv_fine_scale in
    let cx = if px < x0 then x0 else if px > x1 then x1 else px in
    let cy = if py < y0 then y0 else if py > y1 then y1 else py in
    let dx = px -. cx and dy = py -. cy in
    if (dx *. dx) +. (dy *. dy) < bound.(0) then begin
      let base = t.child.(node) in
      if base < 0 then begin
        scan node;
        1
      end
      else begin
        let h = shift - 1 in
        let hs = 1 lsl h in
        let xm = float_of_int (qx0 + hs) *. inv_fine_scale
        and ym = float_of_int (qy0 + hs) *. inv_fine_scale in
        let d0 =
          let cx = if px < x0 then x0 else if px > xm then xm else px
          and cy = if py < ym then ym else if py > y1 then y1 else py in
          let dx = px -. cx and dy = py -. cy in
          (dx *. dx) +. (dy *. dy)
        in
        let d1 =
          let cx = if px < xm then xm else if px > x1 then x1 else px
          and cy = if py < ym then ym else if py > y1 then y1 else py in
          let dx = px -. cx and dy = py -. cy in
          (dx *. dx) +. (dy *. dy)
        in
        let d2 =
          let cx = if px < x0 then x0 else if px > xm then xm else px
          and cy = if py < y0 then y0 else if py > ym then ym else py in
          let dx = px -. cx and dy = py -. cy in
          (dx *. dx) +. (dy *. dy)
        in
        let d3 =
          let cx = if px < xm then xm else if px > x1 then x1 else px
          and cy = if py < y0 then y0 else if py > ym then ym else py in
          let dx = px -. cx and dy = py -. cy in
          (dx *. dx) +. (dy *. dy)
        in
        let r0 =
          (if d1 < d0 then 1 else 0)
          + (if d2 < d0 then 1 else 0)
          + if d3 < d0 then 1 else 0
        in
        let r1 =
          (if d0 <= d1 then 1 else 0)
          + (if d2 < d1 then 1 else 0)
          + if d3 < d1 then 1 else 0
        in
        let r2 =
          (if d0 <= d2 then 1 else 0)
          + (if d1 <= d2 then 1 else 0)
          + if d3 < d2 then 1 else 0
        in
        let r3 =
          (if d0 <= d3 then 1 else 0)
          + (if d1 <= d3 then 1 else 0)
          + if d2 <= d3 then 1 else 0
        in
        let perm =
          (0 lsl (2 * r0)) lor (1 lsl (2 * r1)) lor (2 lsl (2 * r2))
          lor (3 lsl (2 * r3))
        in
        let v = ref 1 in
        for i = 0 to 3 do
          v :=
            !v
            + (match (perm lsr (2 * i)) land 3 with
              | 0 -> go (base + 2) qx0 (qy0 + hs) h
              | 1 -> go (base + 3) (qx0 + hs) (qy0 + hs) h
              | 2 -> go (base + 0) qx0 qy0 h
              | _ -> go (base + 1) (qx0 + hs) qy0 h)
        done;
        !v
      end
    end
    else 1
  in
  go 0 0 0 bits_fine

(* Nearest keeps its own state rather than being [k_nearest 1]: both
   answer the same, but one best-so-far triple needs no heap steps and
   no answer list. Layout: [| best distance² (the bound); best x;
   best y |]. *)
let nearest_visited t (p : Point.t) =
  if t.size = 0 then (None, 0)
  else begin
    let px = p.Point.x and py = p.Point.y in
    let best = [| Float.infinity; 0.0; 0.0 |] in
    let found = ref false in
    let scan node =
      let slot = ref t.head.(node) in
      while !slot >= 0 do
        let s = !slot in
        let x = t.xs.{s} and y = t.ys.{s} in
        let dx = x -. px and dy = y -. py in
        let d = (dx *. dx) +. (dy *. dy) in
        if d < best.(0) then begin
          best.(0) <- d;
          best.(1) <- x;
          best.(2) <- y;
          found := true
        end;
        slot := t.next.{s}
      done
    in
    let visited = ranked_walk t p best scan in
    ( (if !found then Some { Point.x = best.(1); y = best.(2) } else None),
      visited )
  end

let nearest t p = fst (nearest_visited t p)

(* k-NN's best k, flat. Candidates sit in a binary min-heap on negated
   distance (so the root is the worst one kept) held in three float
   arrays, and every step is {!Pqueue}'s: the same strict [<] in
   sift-up and sift-down, a pop as soon as the heap holds more than
   [k], the bound set to the root's distance once it holds exactly [k],
   and the same drain. So ties keep and order exactly the points
   [Pqueue.Neighbors] does, the collector {!Pr_quadtree.k_nearest}
   keeps — with no point, option or tuple per candidate. The arrays
   start small and double as they fill, so even [k = max_int] costs
   memory in the points offered, not in [k]. It lives here, beside
   [ranked_walk], because a distance handed to another module's
   [offer] would be boxed. *)
type best = {
  mutable neg : float array;  (** negated distance², the heap key *)
  mutable bx : float array;
  mutable by : float array;
  mutable held : int;
}

let best_grow b =
  let cap = 2 * Array.length b.neg in
  let extend a =
    let a' = Array.make cap 0.0 in
    Array.blit a 0 a' 0 b.held;
    a'
  in
  b.neg <- extend b.neg;
  b.bx <- extend b.bx;
  b.by <- extend b.by

let best_swap b i j =
  let t = b.neg.(i) in
  b.neg.(i) <- b.neg.(j);
  b.neg.(j) <- t;
  let t = b.bx.(i) in
  b.bx.(i) <- b.bx.(j);
  b.bx.(j) <- t;
  let t = b.by.(i) in
  b.by.(i) <- b.by.(j);
  b.by.(j) <- t

let rec best_sift_up b i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if b.neg.(i) < b.neg.(parent) then begin
      best_swap b i parent;
      best_sift_up b parent
    end
  end

let rec best_sift_down b i =
  let left = (2 * i) + 1 in
  let right = left + 1 in
  let smallest =
    if left < b.held && b.neg.(left) < b.neg.(i) then left else i
  in
  let smallest =
    if right < b.held && b.neg.(right) < b.neg.(smallest) then right
    else smallest
  in
  if smallest <> i then begin
    best_swap b i smallest;
    best_sift_down b smallest
  end

let best_pop b =
  b.held <- b.held - 1;
  let last = b.held in
  b.neg.(0) <- b.neg.(last);
  b.bx.(0) <- b.bx.(last);
  b.by.(0) <- b.by.(last);
  if last > 0 then best_sift_down b 0

let k_nearest_visited t k (p : Point.t) =
  if k < 0 then invalid_arg "Pr_arena.k_nearest: k < 0";
  if k = 0 || t.size = 0 then ([], 0)
  else begin
    let px = p.Point.x and py = p.Point.y in
    let cap = if k < 32 then k + 1 else 32 in
    let b =
      {
        neg = Array.make cap 0.0;
        bx = Array.make cap 0.0;
        by = Array.make cap 0.0;
        held = 0;
      }
    in
    let bound = [| Float.infinity |] in
    let scan node =
      let slot = ref t.head.(node) in
      while !slot >= 0 do
        let s = !slot in
        let x = t.xs.{s} and y = t.ys.{s} in
        let dx = x -. px and dy = y -. py in
        let d = (dx *. dx) +. (dy *. dy) in
        if d < bound.(0) then begin
          if b.held = Array.length b.neg then best_grow b;
          let i = b.held in
          b.neg.(i) <- -.d;
          b.bx.(i) <- x;
          b.by.(i) <- y;
          b.held <- i + 1;
          best_sift_up b i;
          if b.held > k then best_pop b;
          if b.held = k then bound.(0) <- -.b.neg.(0)
        end;
        slot := t.next.{s}
      done
    in
    let visited = ranked_walk t p bound scan in
    (* The heap drains farthest first; consing each onto the answer
       leaves it nearest first. *)
    let acc = ref [] in
    while b.held > 0 do
      acc := { Point.x = b.bx.(0); y = b.by.(0) } :: !acc;
      best_pop b
    done;
    (!acc, visited)
  end

let k_nearest t k p = fst (k_nearest_visited t k p)

(* The point lookups descend like [insert_from] and [locate], on the
   point's fine ordinates, but write no arena scratch ([path], [qbuf]):
   they run on pinned epochs that several domains read at once.
   [leaf_of] returns the leaf holding the ordinates [qx], [qy], and its
   depth. *)
let rec leaf_of t node depth qx qy =
  let base = t.child.(node) in
  if base < 0 then (node, depth)
  else leaf_of t (base + pair_fine qx qy depth) (depth + 1) qx qy

let cell_at t (p : Point.t) =
  if not (Point.in_unit_square p) then
    invalid_arg "Pr_arena.cell_at: point outside bounds";
  let qx = int_of_float (p.Point.x *. fine_scale)
  and qy = int_of_float (p.Point.y *. fine_scale) in
  let node, depth = leaf_of t 0 0 qx qy in
  (* The leaf's fine corner is the ordinates' top [depth] bits; its
     corner floats are the exact dyadics [Box.child]'s midpoint cascade
     produces. *)
  let shift = bits_fine - depth in
  let qx0 = (qx lsr shift) lsl shift and qy0 = (qy lsr shift) lsl shift in
  let corner q = float_of_int q *. inv_fine_scale in
  let side = 1 lsl shift in
  ( depth,
    Box.make ~xmin:(corner qx0) ~ymin:(corner qy0) ~xmax:(corner (qx0 + side))
      ~ymax:(corner (qy0 + side)),
    leaf_points t node )

(* A point descent enters one node per level: the root-to-leaf path of
   [depth] internal steps visits [depth + 1] nodes. *)
let cell_at_visited t (p : Point.t) =
  let ((depth, _, _) as cell) = cell_at t p in
  (cell, depth + 1)

let rec chain_mem t (p : Point.t) slot =
  slot >= 0
  && ((t.xs.{slot} = p.Point.x && t.ys.{slot} = p.Point.y)
     || chain_mem t p t.next.{slot})

let mem t (p : Point.t) =
  Point.in_unit_square p
  &&
  let node, _ =
    leaf_of t 0 0
      (int_of_float (p.Point.x *. fine_scale))
      (int_of_float (p.Point.y *. fine_scale))
  in
  chain_mem t p t.head.(node)

(* --- Snapshots --------------------------------------------------------

   A snapshot is the one copy: [t]'s columns up to the high-water marks,
   its counters, histograms and free-list heads, in a fresh heap arena
   with [t]'s column capacity. The copy is a full arena in its own right
   ([check_invariants] passes, churn may continue on either side) and
   shares no column with the source, so readers of a copy never observe
   writer mutations. The source is only read, so any number of copies
   may be taken of a frozen arena concurrently. The capacity is kept for
   a copy that goes on to replay [t]'s operations: its columns then
   double exactly where [t]'s did, never where [t] had room. *)

let snapshot t =
  let slot_cap = Bigarray.Array1.dim t.xs and node_cap = Array.length t.child in
  let d =
    {
      t with
      backing = Heap;
      seg_dir = None;
      seg_bytes = [];
      child = Array.make node_cap (-1);
      count = Array.make node_cap 0;
      head = Array.make node_cap (-1);
      xs = heap_f slot_cap;
      ys = heap_f slot_cap;
      next = heap_i slot_cap;
      hist = Array.copy t.hist;
      path = Array.make (t.max_depth + 1) 0;
      depth_count = Array.copy t.depth_count;
      qbuf = heap_f 2;
    }
  in
  let open Bigarray.Array1 in
  blit (sub t.xs 0 t.slots) (sub d.xs 0 t.slots);
  blit (sub t.ys 0 t.slots) (sub d.ys 0 t.slots);
  blit (sub t.next 0 t.slots) (sub d.next 0 t.slots);
  (* A loop, not [Array.blit]: into an array on the major heap the blit
     runs the write barrier per element, while stores of statically int
     elements need none. *)
  for i = 0 to t.nodes - 1 do
    d.child.(i) <- t.child.(i);
    d.count.(i) <- t.count.(i);
    d.head.(i) <- t.head.(i)
  done;
  d

let copy_bytes t = (24 * t.slots) + (24 * t.nodes)

let shares_columns a b =
  let any xs ys = List.exists (fun x -> List.exists (( == ) x) ys) xs in
  any [ a.xs; a.ys ] [ b.xs; b.ys ]
  || a.next == b.next
  || any [ a.child; a.count; a.head ] [ b.child; b.count; b.head ]

let diff_state a b =
  let problems = ref [] in
  let report fmt = Format.kasprintf (fun m -> problems := m :: !problems) fmt in
  let field name x y = if x <> y then report "%s: %d vs %d" name x y in
  field "capacity" a.capacity b.capacity;
  field "max_depth" a.max_depth b.max_depth;
  field "size" a.size b.size;
  field "slot high-water" a.slots b.slots;
  field "nodes in use" a.nodes b.nodes;
  field "leaves" a.leaves b.leaves;
  field "internals" a.internals b.internals;
  field "height" a.height b.height;
  field "free-slot head" a.free_slot b.free_slot;
  field "free-node head" a.free_node b.free_node;
  if a.hist <> b.hist then report "occupancy histograms differ";
  if a.depth_count <> b.depth_count then report "per-depth leaf counts differ";
  let first n differs =
    let rec go i = if i >= n then None else if differs i then Some i else go (i + 1) in
    go 0
  in
  let bits x = Int64.bits_of_float x in
  Option.iter (report "point columns differ at slot %d")
    (first (min a.slots b.slots) (fun i ->
         bits a.xs.{i} <> bits b.xs.{i}
         || bits a.ys.{i} <> bits b.ys.{i}
         || a.next.{i} <> b.next.{i}));
  Option.iter (report "node tables differ at node %d")
    (first (min a.nodes b.nodes) (fun i ->
         a.child.(i) <> b.child.(i)
         || a.count.(i) <> b.count.(i)
         || a.head.(i) <> b.head.(i)));
  List.rev !problems

let freeze t =
  let rec conv node =
    let base = t.child.(node) in
    if base < 0 then Pr_quadtree.Raw.Leaf (leaf_points t node)
    else
      Pr_quadtree.Raw.Node
        (Array.init 4 (fun q -> conv (base + quad_pair.(q))))
  in
  Pr_quadtree.Raw.make ~capacity:t.capacity ~max_depth:t.max_depth
    ~bounds:Box.unit ~size:t.size ~root:(conv 0)

let check_invariants t =
  let problems = ref (Pr_quadtree.check_invariants (freeze t)) in
  let report fmt =
    Format.kasprintf (fun s -> problems := !problems @ [ s ]) fmt
  in
  let leaves = ref 0
  and internals = ref 0
  and deepest = ref 0
  and stored = ref 0 in
  let hist = Array.make (t.capacity + 1) 0 in
  let depth_count = Array.make (t.max_depth + 1) 0 in
  let rec go node ~depth ~box =
    let base = t.child.(node) in
    if base < 0 then begin
      incr leaves;
      depth_count.(depth) <- depth_count.(depth) + 1;
      if depth > !deepest then deepest := depth;
      let c = t.count.(node) in
      let bucket = if c < t.capacity then c else t.capacity in
      hist.(bucket) <- hist.(bucket) + 1;
      let chain = ref 0 in
      let slot = ref t.head.(node) in
      while !slot >= 0 do
        let s = !slot in
        incr chain;
        incr stored;
        let p = Point.make t.xs.{s} t.ys.{s} in
        if not (Box.contains box p) then
          report "slot %d outside its leaf cell" s;
        slot := t.next.{s}
      done;
      if !chain <> c then
        report "leaf count field %d but %d slots chained" c !chain
    end
    else begin
      incr internals;
      for q = 0 to 3 do
        go
          (base + quad_pair.(q))
          ~depth:(depth + 1)
          ~box:(Box.child box (Quadrant.of_index q))
      done
    end
  in
  go 0 ~depth:0 ~box:Box.unit;
  if !leaves <> t.leaves then
    report "leaf counter %d but %d leaves present" t.leaves !leaves;
  if !internals <> t.internals then
    report "internal counter %d but %d internal nodes present" t.internals
      !internals;
  if !deepest <> t.height then
    report "height field %d but deepest leaf at %d" t.height !deepest;
  if !stored <> t.size then
    report "size field %d but %d slots chained" t.size !stored;
  if hist <> t.hist then report "incremental histogram diverges from a recount";
  if depth_count <> t.depth_count then
    report "per-depth leaf counts diverge from a recount";
  (* Canonicality under churn: every internal node must still cover
     more than [capacity] live points — eager merging's invariant. *)
  let rec subtree_count node =
    let base = t.child.(node) in
    if base < 0 then t.count.(node)
    else begin
      let s =
        subtree_count base
        + subtree_count (base + 1)
        + subtree_count (base + 2)
        + subtree_count (base + 3)
      in
      if s <= t.capacity then
        report "internal node %d covers only %d points (capacity %d): unmerged"
          node s t.capacity;
      (* Subtree-count maintenance: the stored per-node count must equal
         a recount — the containment-pruning kernels answer from it. *)
      if t.count.(node) <> s then
        report "internal node %d count field %d but subtree holds %d" node
          t.count.(node) s;
      s
    end
  in
  ignore (subtree_count 0 : int);
  (* Free-list accounting: stored plus freed slots must tile the slot
     high-water mark exactly, and tree nodes plus freed 4-blocks the
     node arena. Walks are cycle-guarded by the element counts. *)
  let free_slots = ref 0 in
  let cursor = ref t.free_slot in
  while !cursor >= 0 && !free_slots <= t.slots do
    incr free_slots;
    cursor := t.next.{!cursor}
  done;
  if !cursor >= 0 then report "free-slot list does not terminate (cycle?)"
  else if !stored + !free_slots <> t.slots then
    report "slot accounting: %d stored + %d free <> %d high-water" !stored
      !free_slots t.slots;
  let free_blocks = ref 0 in
  let cursor = ref t.free_node in
  while !cursor >= 0 && 4 * !free_blocks <= t.nodes do
    incr free_blocks;
    cursor := t.child.(!cursor)
  done;
  if !cursor >= 0 then report "free-node list does not terminate (cycle?)"
  else if !leaves + !internals + (4 * !free_blocks) <> t.nodes then
    report "node accounting: %d in tree + %d freed <> %d allocated"
      (!leaves + !internals) (4 * !free_blocks) t.nodes;
  !problems
