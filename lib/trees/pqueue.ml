type 'a t = {
  mutable keys : float array;
  mutable values : 'a option array;  (* None marks unused slots *)
  mutable size : int;
}

let create () = { keys = Array.make 16 0.0; values = Array.make 16 None; size = 0 }

let size q = q.size
let is_empty q = q.size = 0

let grow q =
  let capacity = 2 * Array.length q.keys in
  let keys = Array.make capacity 0.0 in
  let values = Array.make capacity None in
  Array.blit q.keys 0 keys 0 q.size;
  Array.blit q.values 0 values 0 q.size;
  q.keys <- keys;
  q.values <- values

let swap q i j =
  let k = q.keys.(i) in
  q.keys.(i) <- q.keys.(j);
  q.keys.(j) <- k;
  let v = q.values.(i) in
  q.values.(i) <- q.values.(j);
  q.values.(j) <- v

let rec sift_up q i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if q.keys.(i) < q.keys.(parent) then begin
      swap q i parent;
      sift_up q parent
    end
  end

let rec sift_down q i =
  let left = (2 * i) + 1 in
  let right = left + 1 in
  let smallest = ref i in
  if left < q.size && q.keys.(left) < q.keys.(!smallest) then smallest := left;
  if right < q.size && q.keys.(right) < q.keys.(!smallest) then
    smallest := right;
  if !smallest <> i then begin
    swap q i !smallest;
    sift_down q !smallest
  end

let insert q priority value =
  if Float.is_nan priority then invalid_arg "Pqueue.insert: NaN priority";
  if q.size = Array.length q.keys then grow q;
  q.keys.(q.size) <- priority;
  q.values.(q.size) <- Some value;
  q.size <- q.size + 1;
  sift_up q (q.size - 1)

let peek_min q =
  if q.size = 0 then None
  else
    match q.values.(0) with
    | Some v -> Some (q.keys.(0), v)
    | None -> assert false  (* slots below [size] are always occupied *)

let pop_min q =
  match peek_min q with
  | None -> None
  | Some entry ->
    q.size <- q.size - 1;
    q.keys.(0) <- q.keys.(q.size);
    q.values.(0) <- q.values.(q.size);
    q.values.(q.size) <- None;
    if q.size > 0 then sift_down q 0;
    Some entry

let drain q =
  let rec go acc =
    match pop_min q with None -> List.rev acc | Some e -> go (e :: acc)
  in
  go []

(* A bounded best-k collector on top of the min-heap: keys are negated
   distances, so the root is the current kth-best (worst retained)
   candidate and every offer costs O(log k). The persistent k-NN
   kernel collects through it; the arena's flat collector mirrors its
   steps exactly. *)
module Neighbors = struct
  (* [bound] is the pruning bound [worst] returns, kept current by
     [offer] and [drain_nearest]. A k-NN descent reads it at every node
     it visits and every point it scans, so the read must not allocate:
     a float returned by a computation boxes at the call (the kernel
     lives in another module, which cannot inline it), while one read
     from a record field is returned in the box it already has. Only an
     offer accepted by a full collector boxes the new bound. *)
  type nonrec 'a t = { k : int; heap : 'a t; mutable bound : float }

  let open_bound k = if k = 0 then 0.0 else Float.infinity

  let create k =
    if k < 0 then invalid_arg "Pqueue.Neighbors.create: k < 0";
    { k; heap = create (); bound = open_bound k }

  let capacity n = n.k
  let size n = size n.heap
  let worst n = n.bound

  let offer n ~dist v =
    if dist < n.bound then begin
      insert n.heap (-.dist) v;
      if size n > n.k then ignore (pop_min n.heap);
      if size n = n.k then n.bound <- -.n.heap.keys.(0)
    end

  let drain_nearest n =
    n.bound <- open_bound n.k;
    (* The negated-distance heap drains farthest-first. *)
    List.rev_map snd (drain n.heap)
end
