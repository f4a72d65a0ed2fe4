open Import

type row = {
  points : int;
  distribution : Distribution.t;
  tv_to_theory : float;
  average_occupancy : float;
}

let run ?(capacity = 8) ?(max_depth = 16) ?sizes ?jobs ~model ~trials ~seed
    () =
  if trials <= 0 then invalid_arg "Trajectory.run: trials <= 0";
  let sizes =
    match sizes with Some s -> s | None -> Paper_data.sweep_points
  in
  let theory =
    (Population.expected_distribution ~branching:4 ~capacity ())
      .Fixed_point.distribution
  in
  let store = Store.default () in
  let histograms =
    Fan_out.run ?jobs ~experiment:"trajectory" ~sizes:(Array.of_list sizes)
      ~trials ~seed (fun ~k ~n:points rng ->
        let key =
          Printf.sprintf
            "exp=trajectory|model=%s|m=%d|d=%d|seed=%d|split=%d|n=%d"
            (Sampler.id model) capacity max_depth seed k points
        in
        Store.memo store ~kind:"trial-hist" ~version:1 ~key Codec.int_array
          (fun () ->
            (* Draw into the columns, as in Sweep.run: the fill follows
               [Sampler.point]'s order, so the histogram matches the
               historical list-building path byte for byte. *)
            let tree =
              Pr_arena.bulk_of_columns ~max_depth ~capacity ~n:points
                (fun xs ys -> Sampler.fill rng model xs ys points)
            in
            Pr_arena.occupancy_histogram tree))
  in
  List.mapi
    (fun i points ->
      let at_size =
        List.init trials (fun t -> histograms.((i * trials) + t))
      in
      let distribution =
        Distribution.of_weights (Tree_stats.mean_proportions at_size)
      in
      {
        points;
        distribution;
        tv_to_theory = Distribution.total_variation distribution theory;
        average_occupancy = Distribution.average_occupancy distribution;
      })
    sizes

let oscillation rows =
  match rows with
  | [] -> invalid_arg "Trajectory.oscillation: no rows"
  | _ ->
    let tvs = List.map (fun r -> r.tv_to_theory) rows in
    List.fold_left Float.max Float.neg_infinity tvs
    -. List.fold_left Float.min Float.infinity tvs
