open Import

type row = {
  depth : int;
  empty_leaves : float;
  full_leaves : float;
  occupancy : float;
}

let run ?(capacity = 1) ?(max_depth = 9) ?jobs workload =
  let trials = workload.Workload.trials in
  (* Per depth: (empty leaf count, full leaf count, leaves, points).
     Each trial folds into its own table — trials may run on different
     domains, so the task must not touch shared state — and the tables
     are merged afterwards (integer sums, so the merge order cannot
     shift a bit). *)
  let tally table depth cell =
    let e, f, l, p =
      Option.value (Hashtbl.find_opt table depth) ~default:(0, 0, 0, 0)
    in
    let de, df, dl, dp = cell in
    Hashtbl.replace table depth (e + de, f + df, l + dl, p + dp)
  in
  let per_trial =
    Workload.map_trials ?jobs workload ~f:(fun i points ->
        Probe.trial ~experiment:"depth-profile" ~index:i
          ~n:workload.Workload.points (fun () ->
        let tree = Pr_arena.of_points_bulk ~max_depth ~capacity points in
        let mine = Hashtbl.create 16 in
        Pr_arena.fold_leaves tree ~init:()
          ~f:(fun () ~depth ~box:_ ~points:_ ~count:occ ->
            tally mine depth
              ( (if occ = 0 then 1 else 0),
                (if occ >= capacity then 1 else 0),
                1,
                occ ));
        mine))
  in
  let table = Hashtbl.create 16 in
  List.iter (fun mine -> Hashtbl.iter (tally table) mine) per_trial;
  Hashtbl.fold (fun depth cell acc -> (depth, cell) :: acc) table []
  |> List.sort (fun (d1, _) (d2, _) -> compare d1 d2)
  |> List.map (fun (depth, (empty, full, leaves, pts)) ->
         let t = float_of_int trials in
         {
           depth;
           empty_leaves = float_of_int empty /. t;
           full_leaves = float_of_int full /. t;
           occupancy = float_of_int pts /. float_of_int leaves;
         })

let post_split_asymptote ~capacity =
  Pr_model.post_split_occupancy ~branching:4 ~capacity

let monotone_prefix rows =
  let rec go count last = function
    | [] -> count
    | row :: rest ->
      if row.occupancy <= last +. 1e-9 then
        go (count + 1) row.occupancy rest
      else count
  in
  match rows with
  | [] -> 0
  | first :: rest -> go 1 first.occupancy rest
