open Import

type row = {
  points : int;
  nodes : float;
  occupancy : float;
  occupancy_stddev : float;
}

let grid ?(steps_per_quadrupling = 4) ~lo ~hi () =
  if lo <= 0 || hi < lo then invalid_arg "Sweep.grid: need 0 < lo <= hi";
  if steps_per_quadrupling <= 0 then
    invalid_arg "Sweep.grid: steps_per_quadrupling <= 0";
  let ratio = 4.0 ** (1.0 /. float_of_int steps_per_quadrupling) in
  (* Truncate like the paper: its grid reads 64, 90, 128, ... (90.5 -> 90). *)
  let rec go acc x =
    let n = int_of_float (Float.floor (x +. 1e-9)) in
    if n > hi then List.rev acc
    else
      let acc = match acc with
        | last :: _ when last = n -> acc  (* rounding collision *)
        | _ -> n :: acc
      in
      go acc (x *. ratio)
  in
  go [] (float_of_int lo)

let run ?(capacity = 8) ?(max_depth = 16) ?sizes ?jobs ?backing ~model ~trials
    ~seed () =
  if trials <= 0 then invalid_arg "Sweep.run: trials <= 0";
  let sizes =
    match sizes with Some s -> s | None -> Paper_data.sweep_points
  in
  let store = Store.default () in
  let measurements =
    Fan_out.run ?jobs ~experiment:"sweep" ~sizes:(Array.of_list sizes) ~trials
      ~seed (fun ~k ~n:points rng ->
        (* The key names the stream, not the (size, trial) pair: stream
           k is the k-th split of the master, so identity survives grid
           edits that keep a prefix of the pair ordering intact. *)
        let key =
          Printf.sprintf "exp=sweep|model=%s|m=%d|d=%d|seed=%d|split=%d|n=%d"
            (Sampler.id model) capacity max_depth seed k points
        in
        Store.memo store ~kind:"trial-occ" ~version:1 ~key
          Codec.(pair float float)
          (fun () ->
            (* Build-then-measure: the Morton bulk path — same canonical
               decomposition, one sort instead of n descents. The
               sampler draws straight into the arena's columns,
               allocating nothing on the uniform model, in
               [Sampler.point]'s order — so the stream (and the memoized
               row) is byte-identical to the historical list-building
               path. *)
            let tree =
              Pr_arena.bulk_of_columns ?backing ~max_depth ~capacity
                ~n:points (fun xs ys ->
                  Sampler.fill rng model xs ys points)
            in
            let row =
              ( float_of_int (Pr_arena.leaf_count tree),
                Pr_arena.average_occupancy tree )
            in
            Pr_arena.release tree;
            row))
  in
  List.mapi
    (fun i points ->
      let at_size =
        List.init trials (fun t -> measurements.((i * trials) + t))
      in
      let nodes = List.map fst at_size in
      let occs = List.map snd at_size in
      {
        points;
        nodes = Stats.mean nodes;
        occupancy = Stats.mean occs;
        occupancy_stddev = Stats.stddev occs;
      })
    sizes

let concurrent_footprint ?(capacity = 8) ?sizes ?jobs ~trials () =
  if trials <= 0 then invalid_arg "Sweep.concurrent_footprint: trials <= 0";
  let sizes =
    Array.of_list
      (match sizes with Some s -> s | None -> Paper_data.sweep_points)
  in
  let jobs =
    max 1 (match jobs with Some j -> j | None -> Parallel.default_jobs ())
  in
  let order = Fan_out.largest_first ~sizes ~trials in
  let running =
    List.init (min jobs (Array.length order)) (fun i ->
        sizes.(order.(i) / trials))
  in
  ( running,
    List.fold_left
      (fun bytes n -> bytes + Pr_arena.bulk_footprint ~capacity ~n)
      0 running )

let run_incremental ?(capacity = 8) ?(max_depth = 16) ?sizes ?jobs
    ?(checkpoint_every = 4) ~model ~trials ~seed () =
  if trials <= 0 then invalid_arg "Sweep.run_incremental: trials <= 0";
  let sizes =
    match sizes with Some s -> s | None -> Paper_data.sweep_points
  in
  let sizes_a = Array.of_list sizes in
  if Array.length sizes_a = 0 then
    invalid_arg "Sweep.run_incremental: empty size list";
  Array.iteri
    (fun i n ->
      if i > 0 && n <= sizes_a.(i - 1) then
        invalid_arg "Sweep.run_incremental: sizes must increase")
    sizes_a;
  let master = Xoshiro.of_int_seed seed in
  let rngs = Array.make trials master in
  for i = 0 to trials - 1 do
    rngs.(i) <- Xoshiro.split master
  done;
  (* One growing tree per trial; the O(1) builder statistics make each
     snapshot free, and per-trial arrays keep the per-size aggregation
     linear. Trials are independent, so they fan out across domains.
     With a store, the finished trial is memoized whole, and the growth
     is checkpointed every [checkpoint_every] grid sizes so a killed run
     resumes mid-trial: a bulk build over the checkpoint's points has
     the shape the grown tree had, and with the stream state and partial
     rows the trial continues byte-identically. *)
  let store = Store.default () in
  let nsizes = Array.length sizes_a in
  let sizes_id = String.concat "," (List.map string_of_int sizes) in
  let trial i rng0 =
    let key_base =
      Printf.sprintf
        "exp=sweep-incr|model=%s|m=%d|d=%d|seed=%d|trial=%d|sizes=%s"
        (Sampler.id model) capacity max_depth seed i sizes_id
    in
    Store.memo store ~kind:"trial-grow" ~version:1 ~key:key_base
      Codec.(array (pair float float))
      (fun () ->
        let out = Array.make nsizes (0.0, 0.0) in
        (* Growing trees use the arena's incremental path: its O(1)
           statistics make every snapshot free. *)
        let fresh () = (Pr_arena.create ~max_depth ~capacity (), rng0, 0, 0) in
        let tree, rng, have0, start =
          match store with
          | None -> fresh ()
          | Some s -> (
            match Checkpoint.latest s ~key_base ~upto:nsizes with
            | None -> fresh ()
            | Some (g : Checkpoint.growth) ->
              Array.blit g.partial 0 out 0 g.next_index;
              ( Pr_arena.of_points_bulk ~max_depth ~capacity
                  (Array.to_list g.points),
                g.rng,
                g.have,
                g.next_index ))
        in
        let have = ref have0 in
        for idx = start to nsizes - 1 do
          let target = sizes_a.(idx) in
          Pr_arena.insert_all tree
            (Sampler.points rng model (target - !have));
          have := target;
          out.(idx) <-
            ( float_of_int (Pr_arena.leaf_count tree),
              Pr_arena.average_occupancy tree );
          match store with
          | Some s
            when checkpoint_every > 0
                 && (idx + 1) mod checkpoint_every = 0
                 && idx < nsizes - 1 ->
            Checkpoint.save s ~key_base ~index:idx
              {
                Checkpoint.points = Array.of_list (Pr_arena.points tree);
                rng;
                next_index = idx + 1;
                have = !have;
                partial = Array.sub out 0 (idx + 1);
                ops_done = 0;
              }
          | _ -> ()
        done;
        out)
  in
  let snapshots =
    Parallel.map_list ?jobs trials ~f:(fun i ->
        Probe.trial ~experiment:"sweep-incr" ~index:i (fun () ->
            trial i rngs.(i)))
  in
  List.mapi
    (fun i points ->
      let at_size = List.map (fun trial -> trial.(i)) snapshots in
      let nodes = List.map fst at_size in
      let occs = List.map snd at_size in
      {
        points;
        nodes = Stats.mean nodes;
        occupancy = Stats.mean occs;
        occupancy_stddev = Stats.stddev occs;
      })
    sizes

let series rows =
  Phasing.of_lists
    (List.map (fun r -> float_of_int r.points) rows)
    (List.map (fun r -> r.occupancy) rows)
