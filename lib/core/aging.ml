open Import
module Pr_quadtree = Popan_trees.Pr_quadtree

let area_weights tree =
  let capacity = Pr_quadtree.capacity tree in
  let count = Array.make (capacity + 1) 0 in
  let area = Array.make (capacity + 1) 0.0 in
  Pr_quadtree.fold_leaves tree ~init:() ~f:(fun () ~depth:_ ~box ~points ->
      let occ = min (List.length points) capacity in
      count.(occ) <- count.(occ) + 1;
      area.(occ) <- area.(occ) +. Box.area box);
  let total_leaves = Array.fold_left ( + ) 0 count in
  let total_area = Array.fold_left ( +. ) 0.0 area in
  let overall_mean = total_area /. float_of_int total_leaves in
  Vec.init (capacity + 1) (fun i ->
      if count.(i) = 0 then 1.0
      else area.(i) /. float_of_int count.(i) /. overall_mean)

let mean_area_weights trees =
  match trees with
  | [] -> invalid_arg "Aging.mean_area_weights: no trees"
  | _ -> Popan_numerics.Stats.mean_vectors (List.map area_weights trees)

let corrected_solve ?(criterion = Convergence.default) transform ~weights =
  let n = Transform.types transform in
  if Vec.dim weights <> n then
    invalid_arg "Aging.corrected_solve: weight dimension mismatch";
  if not (Vec.all_positive weights) then
    invalid_arg "Aging.corrected_solve: weights must be positive";
  (* Stationarity: e = normalize((e . w) T). Damped iteration; the map is
     a smooth perturbation of the plain power step (w = 1 recovers it). *)
  let step e =
    let hits = Vec.normalize1 (Vec.mapi (fun i x -> x *. weights.(i)) e) in
    let produced = Transform.apply transform hits in
    let next = Vec.normalize1 produced in
    Vec.add (Vec.scale 0.5 e) (Vec.scale 0.5 next)
  in
  let distance e e' = Vec.norm_inf (Vec.sub e e') in
  let start = Vec.create n (1.0 /. float_of_int n) in
  match Convergence.iterate criterion ~step ~distance start with
  | Convergence.Diverged { iterations; _ } ->
    failwith
      (Printf.sprintf "Aging.corrected_solve: no convergence after %d steps"
         iterations)
  | Convergence.Converged { value = e; iterations; _ } ->
    let hits = Vec.normalize1 (Vec.mapi (fun i x -> x *. weights.(i)) e) in
    let produced = Transform.apply transform hits in
    let a = Vec.sum produced in
    {
      Fixed_point.distribution = Distribution.of_weights e;
      eigenvalue = a;
      iterations;
      residual = Vec.norm_inf (Vec.sub produced (Vec.scale a e));
    }
