open Import

type node =
  | Leaf of Point.t list
  | Node of node array  (* exactly 4, indexed by Quadrant.to_index *)

type t = {
  capacity : int;
  max_depth : int;
  bounds : Box.t;
  root : node;
  size : int;
}

let create ?(max_depth = 16) ?(bounds = Box.unit) ~capacity () =
  if capacity < 1 then invalid_arg "Pr_quadtree.create: capacity < 1";
  if max_depth < 0 then invalid_arg "Pr_quadtree.create: max_depth < 0";
  { capacity; max_depth; bounds; root = Leaf []; size = 0 }

let capacity t = t.capacity
let max_depth t = t.max_depth
let bounds t = t.bounds
let size t = t.size
let is_empty t = t.size = 0

(* Split the point list of an over-full leaf at [box]/[depth] into a
   subtree in which no splittable leaf exceeds [capacity]. *)
let rec split_points ~capacity ~max_depth ~depth ~box pts =
  if List.length pts <= capacity || depth >= max_depth then Leaf pts
  else begin
    let buckets = Array.make 4 [] in
    List.iter
      (fun p ->
        let i = Quadrant.to_index (Box.quadrant_of box p) in
        buckets.(i) <- p :: buckets.(i))
      pts;
    let children =
      Array.mapi
        (fun i bucket ->
          split_points ~capacity ~max_depth ~depth:(depth + 1)
            ~box:(Box.child box (Quadrant.of_index i))
            bucket)
        buckets
    in
    Node children
  end

let insert t p =
  if not (Box.contains t.bounds p) then
    invalid_arg "Pr_quadtree.insert: point outside bounds";
  let rec go node ~depth ~box =
    match node with
    | Leaf pts ->
      split_points ~capacity:t.capacity ~max_depth:t.max_depth ~depth ~box
        (p :: pts)
    | Node children ->
      let q = Box.quadrant_of box p in
      let i = Quadrant.to_index q in
      let children = Array.copy children in
      children.(i) <-
        go children.(i) ~depth:(depth + 1) ~box:(Box.child box q);
      Node children
  in
  { t with root = go t.root ~depth:0 ~box:t.bounds; size = t.size + 1 }

let insert_all t ps = List.fold_left insert t ps

let of_points ?max_depth ?bounds ~capacity ps =
  insert_all (create ?max_depth ?bounds ~capacity ()) ps

let mem t p =
  Box.contains t.bounds p
  && begin
    let rec go node box =
      match node with
      | Leaf pts -> List.exists (Point.equal p) pts
      | Node children ->
        let q = Box.quadrant_of box p in
        go children.(Quadrant.to_index q) (Box.child box q)
    in
    go t.root t.bounds
  end

(* Remove one occurrence of [p] from a list; None when absent. *)
let remove_once p pts =
  let rec go acc = function
    | [] -> None
    | x :: rest ->
      if Point.equal p x then Some (List.rev_append acc rest)
      else go (x :: acc) rest
  in
  go [] pts

let remove t p =
  if not (Box.contains t.bounds p) then t
  else begin
    let rec go node box =
      match node with
      | Leaf pts -> (
        match remove_once p pts with
        | None -> None
        | Some pts' -> Some (Leaf pts'))
      | Node children -> (
        let q = Box.quadrant_of box p in
        let i = Quadrant.to_index q in
        match go children.(i) (Box.child box q) with
        | None -> None
        | Some child' ->
          let children = Array.copy children in
          children.(i) <- child';
          (* Collapse when all four children are leaves fitting in one. *)
          let collapsible =
            Array.for_all (function Leaf _ -> true | Node _ -> false) children
          in
          if collapsible then begin
            let merged =
              Array.fold_left
                (fun acc c ->
                  match c with Leaf pts -> List.rev_append pts acc | Node _ -> acc)
                [] children
            in
            if List.length merged <= t.capacity then Some (Leaf merged)
            else Some (Node children)
          end
          else Some (Node children))
    in
    match go t.root t.bounds with
    | None -> t
    | Some root -> { t with root; size = t.size - 1 }
  end

let fold_leaves t ~init ~f =
  let rec go acc node ~depth ~box =
    match node with
    | Leaf pts -> f acc ~depth ~box ~points:pts
    | Node children ->
      let acc = ref acc in
      Array.iteri
        (fun i c ->
          acc :=
            go !acc c ~depth:(depth + 1)
              ~box:(Box.child box (Quadrant.of_index i)))
        children;
      !acc
  in
  go init t.root ~depth:0 ~box:t.bounds

let points t =
  fold_leaves t ~init:[] ~f:(fun acc ~depth:_ ~box:_ ~points ->
      List.rev_append points acc)

let query_box t target =
  let rec go acc node box =
    if not (Box.intersects box target) then acc
    else
      match node with
      | Leaf pts ->
        List.fold_left
          (fun acc p -> if Box.contains target p then p :: acc else acc)
          acc pts
      | Node children ->
        let acc = ref acc in
        Array.iteri
          (fun i c -> acc := go !acc c (Box.child box (Quadrant.of_index i)))
          children;
        !acc
  in
  go [] t.root t.bounds

(* Squared distance from [p] to the closed extent of [box]; 0 inside. *)
let distance_sq_to_box (p : Point.t) (b : Box.t) =
  let clamp v lo hi = Float.max lo (Float.min v hi) in
  let cx = clamp p.Point.x b.Box.xmin b.Box.xmax in
  let cy = clamp p.Point.y b.Box.ymin b.Box.ymax in
  Point.distance_sq p (Point.make cx cy)

let nearest t p =
  let best = ref None in
  let best_d = ref Float.infinity in
  let rec go node box =
    if distance_sq_to_box p box < !best_d then
      match node with
      | Leaf pts ->
        List.iter
          (fun q ->
            let d = Point.distance_sq p q in
            if d < !best_d then begin
              best_d := d;
              best := Some q
            end)
          pts
      | Node children ->
        (* Visit children closest-first so pruning bites early. *)
        let order =
          List.sort
            (fun (_, b1) (_, b2) ->
              Float.compare (distance_sq_to_box p b1) (distance_sq_to_box p b2))
            (List.mapi
               (fun i c -> (c, Box.child box (Quadrant.of_index i)))
               (Array.to_list children))
        in
        List.iter (fun (c, b) -> go c b) order
  in
  go t.root t.bounds;
  !best

let k_nearest t k p =
  if k < 0 then invalid_arg "Pr_quadtree.k_nearest: k < 0";
  if k = 0 then []
  else begin
    (* The shared bounded best-k collector ({!Pqueue.Neighbors}) keeps
       the kth distance at its root, so every offer is O(log k) and the
       subtree-pruning bound is O(1). *)
    let nbrs = Pqueue.Neighbors.create k in
    let offer q = Pqueue.Neighbors.offer nbrs ~dist:(Point.distance_sq p q) q in
    let rec go node box =
      if distance_sq_to_box p box < Pqueue.Neighbors.worst nbrs then
        match node with
        | Leaf pts -> List.iter offer pts
        | Node children ->
          let order =
            List.sort
              (fun (_, b1) (_, b2) ->
                Float.compare (distance_sq_to_box p b1)
                  (distance_sq_to_box p b2))
              (List.mapi
                 (fun i c -> (c, Box.child box (Quadrant.of_index i)))
                 (Array.to_list children))
          in
          List.iter (fun (c, b) -> go c b) order
    in
    go t.root t.bounds;
    Pqueue.Neighbors.drain_nearest nbrs
  end

type nn_entry = Nn_block of node * Box.t | Nn_point of Point.t

let nearest_seq t p =
  let queue = Pqueue.create () in
  Pqueue.insert queue (distance_sq_to_box p t.bounds) (Nn_block (t.root, t.bounds));
  let rec next () =
    match Pqueue.pop_min queue with
    | None -> Seq.Nil
    | Some (_, Nn_point q) -> Seq.Cons (q, next)
    | Some (_, Nn_block (Leaf pts, _)) ->
      List.iter (fun q -> Pqueue.insert queue (Point.distance_sq p q) (Nn_point q)) pts;
      next ()
    | Some (_, Nn_block (Node children, box)) ->
      Array.iteri
        (fun i c ->
          let child_box = Box.child box (Quadrant.of_index i) in
          Pqueue.insert queue (distance_sq_to_box p child_box)
            (Nn_block (c, child_box)))
        children;
      next ()
  in
  next

let count_in_box t target =
  let rec go acc node box =
    if not (Box.intersects box target) then acc
    else
      match node with
      | Leaf pts ->
        List.fold_left
          (fun acc p -> if Box.contains target p then acc + 1 else acc)
          acc pts
      | Node children ->
        let acc = ref acc in
        Array.iteri
          (fun i c -> acc := go !acc c (Box.child box (Quadrant.of_index i)))
          children;
        !acc
  in
  go 0 t.root t.bounds

let leaf_at t p =
  if not (Box.contains t.bounds p) then
    invalid_arg "Pr_quadtree.leaf_at: point outside bounds";
  let rec go node ~depth ~box =
    match node with
    | Leaf pts -> (depth, box, pts)
    | Node children ->
      let q = Box.quadrant_of box p in
      go children.(Quadrant.to_index q) ~depth:(depth + 1) ~box:(Box.child box q)
  in
  go t.root ~depth:0 ~box:t.bounds

type direction = North | South | East | West

let neighbors t ~box ~direction =
  (* Verify [box] is an actual leaf block. *)
  let _, actual, _ = leaf_at t (Box.center box) in
  if not (Box.equal actual box) then
    invalid_arg "Pr_quadtree.neighbors: box is not a leaf block of this tree";
  (* A strip of sub-minimum-block thickness just beyond the shared edge:
     every leaf across the edge intersects it, nothing else does. The
     thickness is per-axis so extreme aspect ratios cannot overreach. *)
  let scale = 2.0 ** float_of_int (t.max_depth + 2) in
  let delta =
    match direction with
    | East | West -> Box.width t.bounds /. scale
    | North | South -> Box.height t.bounds /. scale
  in
  let strip =
    let open Box in
    match direction with
    | East when box.xmax < t.bounds.xmax ->
      Some (make ~xmin:box.xmax ~ymin:box.ymin ~xmax:(box.xmax +. delta) ~ymax:box.ymax)
    | West when box.xmin > t.bounds.xmin ->
      Some (make ~xmin:(box.xmin -. delta) ~ymin:box.ymin ~xmax:box.xmin ~ymax:box.ymax)
    | North when box.ymax < t.bounds.ymax ->
      Some (make ~xmin:box.xmin ~ymin:box.ymax ~xmax:box.xmax ~ymax:(box.ymax +. delta))
    | South when box.ymin > t.bounds.ymin ->
      Some (make ~xmin:box.xmin ~ymin:(box.ymin -. delta) ~xmax:box.xmax ~ymax:box.ymin)
    | East | West | North | South -> None
  in
  match strip with
  | None -> []
  | Some strip ->
    let rec go acc node ~depth ~box:node_box =
      if not (Box.intersects node_box strip) then acc
      else
        match node with
        | Leaf pts -> (depth, node_box, pts) :: acc
        | Node children ->
          let acc = ref acc in
          Array.iteri
            (fun i c ->
              acc :=
                go !acc c ~depth:(depth + 1)
                  ~box:(Box.child node_box (Quadrant.of_index i)))
            children;
          !acc
    in
    List.rev (go [] t.root ~depth:0 ~box:t.bounds)

let iter_points t ~f =
  fold_leaves t ~init:() ~f:(fun () ~depth:_ ~box:_ ~points ->
      List.iter f points)

let leaf_count t =
  fold_leaves t ~init:0 ~f:(fun acc ~depth:_ ~box:_ ~points:_ -> acc + 1)

let internal_count t =
  let rec go = function
    | Leaf _ -> 0
    | Node children -> 1 + Array.fold_left (fun acc c -> acc + go c) 0 children
  in
  go t.root

let height t =
  fold_leaves t ~init:0 ~f:(fun acc ~depth ~box:_ ~points:_ -> max acc depth)

let occupancy_histogram t =
  let hist = Array.make (t.capacity + 1) 0 in
  fold_leaves t ~init:() ~f:(fun () ~depth:_ ~box:_ ~points ->
      let occ = min (List.length points) t.capacity in
      hist.(occ) <- hist.(occ) + 1);
  hist

let average_occupancy t = float_of_int t.size /. float_of_int (leaf_count t)

let equal_structure t1 t2 =
  let sorted pts = List.sort Point.compare pts in
  let rec nodes_equal n1 n2 =
    match (n1, n2) with
    | Leaf p1, Leaf p2 -> sorted p1 = sorted p2
    | Node c1, Node c2 ->
      let ok = ref true in
      Array.iteri (fun i a -> if not (nodes_equal a c2.(i)) then ok := false) c1;
      !ok
    | Leaf _, Node _ | Node _, Leaf _ -> false
  in
  t1.capacity = t2.capacity && t1.max_depth = t2.max_depth
  && Box.equal t1.bounds t2.bounds
  && t1.size = t2.size
  && nodes_equal t1.root t2.root

let pp_structure ppf t =
  let rec go node ~depth ~path =
    let indent = String.make (2 * depth) ' ' in
    match node with
    | Leaf pts ->
      Format.fprintf ppf "%s%s leaf: %d point%s@," indent
        (if path = "" then "root" else path)
        (List.length pts)
        (if List.length pts = 1 then "" else "s")
    | Node children ->
      Format.fprintf ppf "%s%s node@," indent
        (if path = "" then "root" else path);
      Array.iteri
        (fun i c ->
          let q = Quadrant.of_index i in
          go c ~depth:(depth + 1)
            ~path:(path ^ (if path = "" then "" else ".") ^ Quadrant.to_string q))
        children
  in
  Format.fprintf ppf "@[<v>";
  go t.root ~depth:0 ~path:"";
  Format.fprintf ppf "@]"

let check_invariants t =
  let problems = ref [] in
  let report fmt = Format.kasprintf (fun s -> problems := s :: !problems) fmt in
  let total = ref 0 in
  let rec go node ~depth ~box =
    match node with
    | Leaf pts ->
      total := !total + List.length pts;
      List.iter
        (fun p ->
          if not (Box.contains box p) then
            report "point %a outside its leaf block %a" Point.pp p Box.pp box)
        pts;
      if List.length pts > t.capacity && depth < t.max_depth then
        report "splittable leaf at depth %d holds %d > capacity %d" depth
          (List.length pts) t.capacity
    | Node children ->
      if Array.length children <> 4 then
        report "internal node with %d children" (Array.length children);
      let node_points =
        let rec count = function
          | Leaf pts -> List.length pts
          | Node cs -> Array.fold_left (fun acc c -> acc + count c) 0 cs
        in
        count node
      in
      if node_points <= t.capacity then
        report "internal node at depth %d holds only %d <= capacity %d points"
          depth node_points t.capacity;
      Array.iteri
        (fun i c ->
          go c ~depth:(depth + 1) ~box:(Box.child box (Quadrant.of_index i)))
        children
  in
  go t.root ~depth:0 ~box:t.bounds;
  if !total <> t.size then
    report "size field %d but %d points stored" t.size !total;
  List.rev !problems

module Raw = struct
  type raw_node = node =
    | Leaf of Point.t list
    | Node of raw_node array

  let root t = t.root

  let make ~capacity ~max_depth ~bounds ~size ~root =
    if capacity < 1 then invalid_arg "Pr_quadtree.Raw.make: capacity < 1";
    if max_depth < 0 then invalid_arg "Pr_quadtree.Raw.make: max_depth < 0";
    if size < 0 then invalid_arg "Pr_quadtree.Raw.make: size < 0";
    { capacity; max_depth; bounds; root; size }
end
