(* The end-to-end side of the benchmark, driven by perfbench/run.py.

   e2e serve WORKLOAD --popan EXE --socket PATH --seed N --seconds S
       --setups K
     spawns [popan serve] K times in turn, timing each start-up to its
     first Stats reply; each server then answers a closed loop of
     batches for S/K seconds and quits. An in-process oracle then
     replays the same batches. Prints one JSON object of raw samples,
     per server, with /proc/stat CPU ticks around each timed interval.

   e2e sweep-oracle --seed N
     prints the sweep grid, the trials per size and the rows of an
     in-process Sweep.run, which every `popan sweep` of the run must
     reproduce. *)

module Json = Popan_obs.Obs_json
module Sweep = Popan_experiments.Sweep
module Sampler = Popan_rng.Sampler

let floats a = Json.List (Array.to_list (Array.map (fun x -> Json.Float x) a))

(* Batches each server answers before the timed phase: the first ones
   after a start fault in pages and warm caches that later batches find
   ready. They are checked like the rest. *)
let warmup = 3

let serve name =
  let w =
    match Spec.find_serve name with
    | Some w -> w
    | None -> failwith ("unknown serve workload " ^ name)
  in
  let popan = Spec.arg "--popan" and socket = Spec.arg "--socket" in
  let seed = int_of_string (Spec.arg "--seed") in
  let seconds = float_of_string (Spec.arg "--seconds") in
  let setups = int_of_string (Spec.arg "--setups") in
  (* The measured phase is split across [setups] fresh servers, so one
     process's memory placement cannot set a whole run's figures. *)
  let segments =
    List.init setups (fun _ ->
        let c = Serve_client.start ~popan ~socket w ~seed in
        let loop =
          Serve_client.closed_loop ~warmup c w ~seed ~seconds:(seconds /. float_of_int setups)
        in
        let rss_mb = Serve_client.peak_rss_mb c.Serve_client.pid in
        Serve_client.quit c;
        (c.Serve_client.setup_s, c.Serve_client.setup_ticks, loop, rss_mb))
  in
  let loops = List.map (fun (_, _, l, _) -> l) segments in
  let batches =
    List.fold_left (fun m l -> max m (Array.length l.Serve_client.observed)) 0 loops
  in
  let expected = Serve_client.oracle w ~seed ~batches in
  let failures = ref [] in
  List.iteri
    (fun j l ->
      Array.iteri
        (fun k o ->
          match Verify.agree ~expected:expected.(k) o with
          | Ok () -> ()
          | Error reason ->
            failures := Printf.sprintf "server %d batch %d: %s" j k reason :: !failures)
        l.Serve_client.observed)
    loops;
  let failures = List.rev !failures in
  let ticks ((b0, s0), (b1, s1)) = Json.List (List.map (fun n -> Json.Int n) [ b0; s0; b1; s1 ]) in
  let server (setup_s, setup_ticks, (l : Serve_client.loop), rss_mb) =
    Json.Obj
      [
        ("setup_s", Json.Float setup_s);
        ("setup_ticks", ticks setup_ticks);
        ("rtt_ms", floats l.Serve_client.rtt_ms);
        ("phase_s", Json.Float l.Serve_client.phase_s);
        ("phase_ticks", ticks l.Serve_client.phase_ticks);
        ("answer_points", Json.Int l.Serve_client.points);
        ("peak_rss_mb", Json.Float rss_mb);
      ]
  in
  Json.Obj
    [
      ("ocaml", Json.Str Sys.ocaml_version);
      ("batch_size", Json.Int w.Spec.batch_size);
      ("servers", Json.List (List.map server segments));
      ( "attempted",
        Json.Int (List.fold_left (fun n l -> n + Array.length l.Serve_client.observed) 0 loops) );
      ("failures", Json.List (List.map (fun f -> Json.Str f) failures));
    ]

let sweep_oracle () =
  let seed = int_of_string (Spec.arg "--seed") in
  let sizes = Spec.sweep_sizes () in
  let rows =
    Sweep.run ~capacity:Spec.capacity ~sizes ~jobs:Spec.sweep_jobs
      ~model:Sampler.Uniform ~trials:Spec.sweep_trials ~seed ()
  in
  Json.Obj
    [
      ("ocaml", Json.Str Sys.ocaml_version);
      ("sizes", Json.List (List.map (fun n -> Json.Int n) sizes));
      ("capacity", Json.Int Spec.capacity);
      ("trials", Json.Int Spec.sweep_trials);
      ("jobs", Json.Int Spec.sweep_jobs);
      ( "rows",
        Json.List
          (List.map
             (fun (r : Sweep.row) ->
               Json.List
                 [
                   Json.Int r.Sweep.points;
                   Json.Float r.Sweep.nodes;
                   Json.Float r.Sweep.occupancy;
                   Json.Float r.Sweep.occupancy_stddev;
                 ])
             rows) );
    ]

let () =
  let result =
    match Array.to_list Sys.argv with
    | _ :: "serve" :: name :: _ -> serve name
    | _ :: "sweep-oracle" :: _ -> sweep_oracle ()
    | _ -> failwith "usage: e2e (serve WORKLOAD | sweep-oracle) OPTIONS"
  in
  print_endline (Json.to_string result)
