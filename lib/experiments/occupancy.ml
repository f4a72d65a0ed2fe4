open Import

type measurement = {
  distribution : Distribution.t;
  average_occupancy : float;
  occupancy_stddev : float;
  occupancy_ci : float * float;
  leaf_count_mean : float;
  trials : int;
}

let aggregate histograms occupancies leaf_counts =
  let ci =
    (* A fixed-seed bootstrap keeps the measurement deterministic. *)
    let rng = Xoshiro.of_int_seed 0x5eed in
    Stats.bootstrap_ci ~resamples:2000 ~confidence:0.95
      ~rng:(fun n -> Xoshiro.int rng n)
      occupancies
  in
  {
    distribution = Distribution.of_weights (Tree_stats.mean_proportions histograms);
    average_occupancy = Stats.mean occupancies;
    occupancy_stddev = Stats.stddev occupancies;
    occupancy_ci = ci;
    leaf_count_mean = Stats.mean leaf_counts;
    trials = List.length occupancies;
  }

(* Per-trial cache identity: the workload names the stream (model, size,
   seed, trial index), the structure tag and parameters name what was
   built from it. [max_depth] defaults differ per structure, so the
   unset case is spelled out rather than resolved here. *)
let measure_key ~structure ~(workload : Workload.t) ~trial ~capacity
    ~max_depth extra =
  Printf.sprintf "exp=occupancy|struct=%s|model=%s|n=%d|seed=%d|trial=%d|m=%d|d=%s%s"
    structure
    (Sampler.id workload.Workload.model)
    workload.Workload.points workload.Workload.seed trial capacity
    (match max_depth with None -> "default" | Some d -> string_of_int d)
    extra

let measure_codec = Codec.(triple int_array float float)

let measure_pr ?max_depth ?jobs workload ~capacity =
  (* Ship the per-trial statistics, not the builders: the trees die in
     the domain that grew them. *)
  let store = Store.default () in
  let measured =
    Workload.map_trials ?jobs workload ~f:(fun i points ->
        Probe.trial ~experiment:"occupancy-pr" ~index:i
          ~n:workload.Workload.points (fun () ->
            let key =
              measure_key ~structure:"pr" ~workload ~trial:i ~capacity
                ~max_depth ""
            in
            Store.memo store ~kind:"trial-measure" ~version:1 ~key
              measure_codec
              (fun () ->
                let b = Pr_arena.of_points_bulk ?max_depth ~capacity points in
                ( Pr_arena.occupancy_histogram b,
                  Pr_arena.average_occupancy b,
                  float_of_int (Pr_arena.leaf_count b) ))))
  in
  aggregate
    (List.map (fun (h, _, _) -> h) measured)
    (List.map (fun (_, o, _) -> o) measured)
    (List.map (fun (_, _, l) -> l) measured)

let measure_bintree ?max_depth ?jobs workload ~capacity =
  let store = Store.default () in
  let measured =
    Workload.map_trials ?jobs workload ~f:(fun i points ->
        let key =
          measure_key ~structure:"bintree" ~workload ~trial:i ~capacity
            ~max_depth ""
        in
        Store.memo store ~kind:"trial-measure" ~version:1 ~key measure_codec
          (fun () ->
            let t = Bintree.of_points ?max_depth ~capacity points in
            ( Bintree.occupancy_histogram t,
              Bintree.average_occupancy t,
              float_of_int (Bintree.leaf_count t) )))
  in
  aggregate
    (List.map (fun (h, _, _) -> h) measured)
    (List.map (fun (_, o, _) -> o) measured)
    (List.map (fun (_, _, l) -> l) measured)

let measure_md ?max_depth ?jobs ~dim ~points ~trials ~seed ~capacity () =
  if points <= 0 then invalid_arg "Occupancy.measure_md: points <= 0";
  if trials <= 0 then invalid_arg "Occupancy.measure_md: trials <= 0";
  let master = Xoshiro.of_int_seed seed in
  let rngs = Array.make trials master in
  for i = 0 to trials - 1 do
    rngs.(i) <- Xoshiro.split master
  done;
  let store = Store.default () in
  let measured =
    Parallel.map_list ?jobs trials ~f:(fun i ->
        let key =
          Printf.sprintf
            "exp=occupancy|struct=md|dim=%d|n=%d|seed=%d|trial=%d|m=%d|d=%s"
            dim points seed i capacity
            (match max_depth with
            | None -> "default"
            | Some d -> string_of_int d)
        in
        Store.memo store ~kind:"trial-measure" ~version:1 ~key measure_codec
          (fun () ->
            let t =
              Md_tree.of_points ?max_depth ~capacity ~dim
                (Sampler.points_nd rngs.(i) ~dim points)
            in
            ( Md_tree.occupancy_histogram t,
              Md_tree.average_occupancy t,
              float_of_int (Md_tree.leaf_count t) )))
  in
  aggregate
    (List.map (fun (h, _, _) -> h) measured)
    (List.map (fun (_, o, _) -> o) measured)
    (List.map (fun (_, _, l) -> l) measured)

type comparison = {
  capacity : int;
  theory : Distribution.t;
  measured : measurement;
  theory_occupancy : float;
  percent_difference : float;
}

let compare_pr ?max_depth ?jobs workload ~capacity =
  let report = Population.expected_distribution ~branching:4 ~capacity () in
  let theory = report.Fixed_point.distribution in
  let measured = measure_pr ?max_depth ?jobs workload ~capacity in
  let theory_occupancy = Distribution.average_occupancy theory in
  {
    capacity;
    theory;
    measured;
    theory_occupancy;
    percent_difference =
      100.0
      *. (theory_occupancy -. measured.average_occupancy)
      /. theory_occupancy;
  }

let table1 ?max_depth ?jobs ?(capacities = [ 1; 2; 3; 4; 5; 6; 7; 8 ]) workload
    =
  List.map
    (fun capacity -> compare_pr ?max_depth ?jobs workload ~capacity)
    capacities
