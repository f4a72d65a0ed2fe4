open Import

type trial_stats = {
  hist : int array;
  occupancy : float;
  leaves : int;
  height : int;
  live : int;
  high : int;
}

let trial_codec =
  let tuple =
    Codec.(pair (pair int_array float) (pair (pair int int) (pair int int)))
  in
  Codec.map tuple
    ~decode:(fun ((hist, occupancy), ((leaves, height), (live, high))) ->
      { hist; occupancy; leaves; height; live; high })
    ~encode:(fun s ->
      ((s.hist, s.occupancy), ((s.leaves, s.height), (s.live, s.high))))

let effective_insert_fraction (spec : Workload.Churn.spec) =
  let q = spec.Workload.Churn.insert_fraction
  and u = spec.Workload.Churn.update_fraction in
  (((1.0 -. u) *. q) +. u) /. (1.0 +. u)

(* Per-trial cache identity: the full spec names the event stream, the
   tree parameters name what consumed it. [checkpoint_every] is part of
   the key only through the checkpoint side-records (same key_base), so
   the memoized result itself is shared across checkpoint cadences. *)
let trial_key (spec : Workload.Churn.spec) ~capacity ~max_depth ~trial =
  let w = spec.Workload.Churn.base in
  Printf.sprintf
    "exp=churn|model=%s|n=%d|seed=%d|ops=%d|q=%.17g|u=%.17g|sigma=%.17g|m=%d|d=%s|trial=%d"
    (Sampler.id w.Workload.model)
    w.Workload.points w.Workload.seed spec.Workload.Churn.ops
    spec.Workload.Churn.insert_fraction spec.Workload.Churn.update_fraction
    spec.Workload.Churn.drift_sigma capacity
    (match max_depth with None -> "default" | Some d -> string_of_int d)
    trial

let apply arena = function
  | Workload.Churn.Insert p -> Pr_arena.insert arena p
  | Workload.Churn.Delete p ->
    if not (Pr_arena.delete arena p) then
      failwith "Churn.run: delete missed a live point"
  | Workload.Churn.Update (p, q) ->
    if not (Pr_arena.update arena p q) then
      failwith "Churn.run: update missed a live point"

let run_trial (spec : Workload.Churn.spec) ~capacity ~max_depth
    ~checkpoint_every ~trial rng =
  let store = Store.default () in
  let key = trial_key spec ~capacity ~max_depth ~trial in
  let ops = spec.Workload.Churn.ops in
  Store.memo store ~kind:"trial-churn" ~version:1 ~key trial_codec (fun () ->
      let nckpt = if checkpoint_every > 0 then ops / checkpoint_every else 0 in
      let build live =
        Pr_arena.of_points_bulk ?max_depth ~capacity (Array.to_list live)
      in
      let fresh () =
        let st = Workload.Churn.start spec ~rng in
        (st, build (Workload.Churn.live st), 0)
      in
      let st, arena, high0 =
        match store with
        | Some s when nckpt > 0 -> (
          match Checkpoint.latest s ~key_base:key ~upto:nckpt with
          | Some g when g.Checkpoint.ops_done > 0 ->
            (* The tree's shape is a function of the live points, so a
               build over them resumes it. [have] carried the slot
               high-water mark, which the rebuilt arena cannot see (it
               only holds live points); the running max below keeps the
               resumed figure exact. *)
            ( Workload.Churn.restore ~rng:g.Checkpoint.rng
                ~live:g.Checkpoint.points ~ops_done:g.Checkpoint.ops_done,
              build g.Checkpoint.points,
              g.Checkpoint.have )
          | _ -> fresh ())
        | _ -> fresh ()
      in
      let high () = max high0 (Pr_arena.slot_high_water arena) in
      for op = Workload.Churn.ops_done st to ops - 1 do
        apply arena (Workload.Churn.step spec st);
        match store with
        | Some s
          when checkpoint_every > 0
               && (op + 1) mod checkpoint_every = 0
               && op + 1 < ops ->
          let idx = ((op + 1) / checkpoint_every) - 1 in
          Checkpoint.save s ~key_base:key ~index:idx
            {
              Checkpoint.points = Workload.Churn.live st;
              rng = Workload.Churn.rng st;
              next_index = idx + 1;
              have = high ();
              partial = [||];
              ops_done = Workload.Churn.ops_done st;
            }
        | _ -> ()
      done;
      {
        hist = Pr_arena.occupancy_histogram arena;
        occupancy = Pr_arena.average_occupancy arena;
        leaves = Pr_arena.leaf_count arena;
        height = Pr_arena.height arena;
        live = Pr_arena.size arena;
        high = high ();
      })

type row = {
  capacity : int;
  insert_fraction : float;
  update_fraction : float;
  theory : Distribution.t;
  theory_occupancy : float;
  measured : Distribution.t;
  measured_occupancy : float;
  occupancy_stddev : float;
  percent_difference : float;
  live_mean : float;
  leaves_mean : float;
  height_mean : float;
  high_water_mean : float;
  trials : int;
}

let run ?max_depth ?jobs ?(checkpoint_every = 0) spec ~capacity =
  let stats =
    Workload.Churn.map_trials ?jobs spec ~f:(fun i rng ->
        Probe.trial ~experiment:"churn" ~index:i ~n:spec.Workload.Churn.ops
          (fun () ->
            run_trial spec ~capacity ~max_depth ~checkpoint_every ~trial:i rng))
  in
  let report =
    Churn_model.steady_state ~branching:4 ~capacity
      ~insert_fraction:(effective_insert_fraction spec) ()
  in
  let theory = report.Fixed_point.distribution in
  let theory_occupancy = Distribution.average_occupancy theory in
  let occs = List.map (fun s -> s.occupancy) stats in
  let measured_occupancy = Stats.mean occs in
  let meanf f = Stats.mean (List.map (fun s -> float_of_int (f s)) stats) in
  {
    capacity;
    insert_fraction = spec.Workload.Churn.insert_fraction;
    update_fraction = spec.Workload.Churn.update_fraction;
    theory;
    theory_occupancy;
    measured =
      Distribution.of_weights
        (Tree_stats.mean_proportions (List.map (fun s -> s.hist) stats));
    measured_occupancy;
    occupancy_stddev = Stats.stddev occs;
    percent_difference =
      100.0 *. (theory_occupancy -. measured_occupancy) /. theory_occupancy;
    live_mean = meanf (fun s -> s.live);
    leaves_mean = meanf (fun s -> s.leaves);
    height_mean = meanf (fun s -> s.height);
    high_water_mean = meanf (fun s -> s.high);
    trials = List.length stats;
  }

let study ?max_depth ?jobs ?checkpoint_every ?model ?points ?trials ?seed ?ops
    ?drift_sigma ?(mixes = [ (0.5, 0.0); (0.5, 0.5); (0.75, 0.0) ]) ~capacity
    () =
  List.map
    (fun (insert_fraction, update_fraction) ->
      let spec =
        Workload.Churn.make ?model ?points ?trials ?seed ?ops ~insert_fraction
          ~update_fraction ?drift_sigma ()
      in
      run ?max_depth ?jobs ?checkpoint_every spec ~capacity)
    mixes
