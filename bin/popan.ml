(* popan: command-line front end regenerating every table and figure of
   Nelson & Samet, "A Population Analysis for Hierarchical Data
   Structures" (SIGMOD 1987), plus the extension experiments. *)

open Popan_experiments
module Table = Popan_report.Table
module Csv = Popan_report.Csv
module Distribution = Popan_core.Distribution
module Fixed_point = Popan_core.Fixed_point
module Population = Popan_core.Population
module Store = Popan_store.Artifact_store
module Pr_arena = Popan_trees.Pr_arena
module Metrics = Popan_obs.Metrics
module Trace = Popan_obs.Trace
module Probe = Popan_obs.Probe
module Obs_json = Popan_obs.Obs_json
module Event = Popan_obs.Event
module Flight = Popan_obs.Flight
module Sketch = Popan_obs.Sketch

(* Common command-line options *)

open Cmdliner

let jobs_term =
  let doc =
    "Worker domains for the trial-parallel experiments (0 = one per \
     core). Every table is byte-identical for every $(docv) — the \
     engine pre-splits all per-trial random streams and merges results \
     in trial order."
  in
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"JOBS" ~doc)

let cache_env = Cmd.Env.info "POPAN_CACHE" ~doc:"Default artifact-cache directory."

let cache_term =
  let doc =
    "Artifact-cache directory: per-trial results are stored there and \
     reused by later runs (results are byte-identical either way). \
     Created if missing."
  in
  Arg.(value & opt (some string) None
       & info [ "cache" ] ~docv:"DIR" ~doc ~env:cache_env)

let no_cache_term =
  let doc = "Disable the artifact cache even when $(b,POPAN_CACHE) is set." in
  Arg.(value & flag & info [ "no-cache" ] ~doc)

let trace_env =
  Cmd.Env.info "POPAN_TRACE" ~doc:"Default trace output file (as --trace)."

let trace_term =
  let doc =
    "Record a span for every trial, solver call, pool batch and store \
     lookup, and write them to $(docv) at exit — Chrome trace-event \
     JSON (load it in chrome://tracing or Perfetto), or line-JSON / \
     indented text when $(docv) ends in .jsonl / .txt. Implies the \
     metrics registry is on."
  in
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE" ~doc ~env:trace_env)

let metrics_term =
  let doc =
    "Count solver iterations, builder inserts/splits, pool tasks and \
     store traffic during the run and print every nonzero instrument to \
     stderr at exit."
  in
  Arg.(value & flag & info [ "metrics" ] ~doc)

let metrics_out_term =
  let doc =
    "Write the metrics registry as JSON to $(docv) at exit (validate or \
     summarize it with $(b,popan obs))."
  in
  Arg.(value & opt (some string) None
       & info [ "metrics-out" ] ~docv:"FILE" ~doc)

let events_term =
  let doc =
    "Append every structured event as line JSON to $(docv) (truncated on \
     open, flushed per event — $(b,tail -f) and external collectors work)."
  in
  Arg.(value & opt (some string) None & info [ "events" ] ~docv:"FILE" ~doc)

let no_event_stderr_term =
  let doc =
    "Do not mirror Warn-and-above events (degrade warnings, refused \
     frames, slow queries) to stderr."
  in
  Arg.(value & flag & info [ "no-event-stderr" ] ~doc)

(* All knobs land in ambient state consulted by every experiment entry
   point, so extension studies inherit them too. Counters flush to the
   store's log at exit, which is what lets a later `popan cache stats`
   prove a warm rerun computed nothing; trace and metrics exports are
   likewise written at exit, after every fan-out has joined. *)
let setup jobs cache no_cache trace metrics metrics_out events no_event_stderr =
  Popan_parallel.set_default_jobs jobs;
  (match trace with
  | Some _ -> Probe.set_level `Trace
  | None ->
    if metrics || metrics_out <> None then Probe.set_level `Metrics_only);
  if no_event_stderr then Event.set_stderr_mirror false;
  Option.iter
    (fun path ->
      Event.set_sink_file path;
      at_exit Event.close_sink)
    events;
  Option.iter
    (fun path ->
      at_exit (fun () ->
          Trace.write_file path;
          let dropped = Trace.dropped () in
          if dropped > 0 then
            Printf.eprintf
              "popan: trace ring overflowed, oldest %d records dropped\n"
              dropped;
          Printf.eprintf "popan: wrote trace to %s\n" path))
    trace;
  Option.iter
    (fun path ->
      at_exit (fun () ->
          let oc = open_out path in
          Fun.protect
            ~finally:(fun () -> close_out oc)
            (fun () -> output_string oc (Metrics.to_json ()));
          Printf.eprintf "popan: wrote metrics to %s\n" path))
    metrics_out;
  if metrics then at_exit (fun () -> prerr_string (Metrics.report ()));
  match (no_cache, cache) with
  | true, _ | false, None -> Store.set_default None
  | false, Some dir ->
    let store = Store.open_store dir in
    Store.set_default (Some store);
    at_exit (fun () -> Store.flush_counters store)

let setup_term =
  Term.(const setup $ jobs_term $ cache_term $ no_cache_term $ trace_term
        $ metrics_term $ metrics_out_term $ events_term $ no_event_stderr_term)

let points_term =
  let doc = "Points per trial." in
  Arg.(value & opt int 1000 & info [ "n"; "points" ] ~docv:"N" ~doc)

let trials_term =
  let doc = "Independent trials to average over (the paper used 10)." in
  Arg.(value & opt int 10 & info [ "t"; "trials" ] ~docv:"TRIALS" ~doc)

let seed_term =
  let doc = "Master random seed; every experiment is deterministic given it." in
  Arg.(value & opt int 1987 & info [ "seed" ] ~docv:"SEED" ~doc)

let capacity_term ~default =
  let doc = "Node capacity (bucket size) m." in
  Arg.(value & opt int default & info [ "m"; "capacity" ] ~docv:"M" ~doc)

let csv_term =
  let doc = "Also write the regenerated series to $(docv)." in
  Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE" ~doc)

let gaussian_sigma = 0.25

let write_csv path rows =
  let header, body = Render.sweep_csv rows in
  Csv.write path ~header body;
  Printf.printf "wrote %s\n" path

(* Commands *)

let theory_cmd =
  let run branching capacity solver_name =
    let solver =
      match solver_name with
      | "power" -> Population.Power
      | "newton" -> Population.Newton_raphson
      | other -> failwith (Printf.sprintf "unknown solver %S" other)
    in
    let report =
      Population.expected_distribution ~solver ~branching ~capacity ()
    in
    let d = report.Fixed_point.distribution in
    Printf.printf "branching %d, capacity %d (%s solver)\n" branching capacity
      solver_name;
    Printf.printf "expected distribution: %s\n" (Distribution.to_string d);
    Printf.printf "average occupancy:     %.4f\n"
      (Distribution.average_occupancy d);
    Printf.printf "storage utilization:   %.4f\n"
      (Distribution.utilization d ~capacity);
    Printf.printf "nodes per insertion a: %.4f\n" report.Fixed_point.eigenvalue;
    Printf.printf "solver iterations:     %d (residual %.2e)\n"
      report.Fixed_point.iterations report.Fixed_point.residual
  in
  let branching =
    let doc = "Branching factor (2 bintree, 4 quadtree, 8 octree)." in
    Arg.(value & opt int 4 & info [ "b"; "branching" ] ~docv:"B" ~doc)
  in
  let solver =
    let doc = "Solver: power | newton." in
    Arg.(value & opt string "power" & info [ "solver" ] ~docv:"SOLVER" ~doc)
  in
  let term = Term.(const run $ branching $ capacity_term ~default:1 $ solver) in
  Cmd.v
    (Cmd.info "theory" ~doc:"Solve the population model for one configuration.")
    term

let comparisons ~points ~trials ~seed =
  Occupancy.table1 (Workload.make ~points ~trials ~seed ())

let table1_cmd =
  let run () points trials seed =
    Table.print (Render.table1 (comparisons ~points ~trials ~seed))
  in
  let term =
    Term.(const run $ setup_term $ points_term $ trials_term $ seed_term)
  in
  Cmd.v
    (Cmd.info "table1"
       ~doc:"Reproduce Table 1: expected distributions, theory vs experiment.")
    term

let table2_cmd =
  let run () points trials seed =
    Table.print (Render.table2 (comparisons ~points ~trials ~seed))
  in
  let term =
    Term.(const run $ setup_term $ points_term $ trials_term $ seed_term)
  in
  Cmd.v
    (Cmd.info "table2"
       ~doc:"Reproduce Table 2: average node occupancies and % differences.")
    term

let table3_cmd =
  let run () points trials seed =
    let workload = Workload.make ~points ~trials ~seed () in
    Table.print (Render.table3 (Depth_profile.run workload));
    Printf.printf "post-split asymptote (capacity 1): %.2f\n"
      (Depth_profile.post_split_asymptote ~capacity:1)
  in
  let term =
    Term.(const run $ setup_term $ points_term $ trials_term $ seed_term)
  in
  Cmd.v
    (Cmd.info "table3" ~doc:"Reproduce Table 3: occupancy by node size (aging).")
    term

let incremental_term =
  let doc =
    "Grow a single tree through the size grid per trial instead of building \
     independent trees at every size."
  in
  Arg.(value & flag & info [ "incremental" ] ~doc)

let sweep ?(incremental = false) ~model ~trials ~seed ~capacity () =
  if incremental then Sweep.run_incremental ~capacity ~model ~trials ~seed ()
  else Sweep.run ~capacity ~model ~trials ~seed ()

let table4_cmd =
  let run () trials seed capacity csv incremental =
    let rows =
      sweep ~incremental ~model:Popan_rng.Sampler.Uniform ~trials ~seed
        ~capacity ()
    in
    Table.print
      (Render.sweep_table
         ~title:"Table 4: variation of occupancy with tree size (uniform)"
         ~paper:Paper_data.table4 rows);
    Option.iter (fun path -> write_csv path rows) csv
  in
  let term =
    Term.(const run $ setup_term $ trials_term $ seed_term
          $ capacity_term ~default:8 $ csv_term $ incremental_term)
  in
  Cmd.v
    (Cmd.info "table4"
       ~doc:"Reproduce Table 4: occupancy vs N, uniform data (phasing).")
    term

let table5_cmd =
  let run () trials seed capacity csv incremental =
    let rows =
      sweep ~incremental
        ~model:(Popan_rng.Sampler.Gaussian { sigma = gaussian_sigma })
        ~trials ~seed ~capacity ()
    in
    Table.print
      (Render.sweep_table
         ~title:"Table 5: variation of occupancy with tree size (Gaussian)"
         ~paper:Paper_data.table5 rows);
    Option.iter (fun path -> write_csv path rows) csv
  in
  let term =
    Term.(const run $ setup_term $ trials_term $ seed_term
          $ capacity_term ~default:8 $ csv_term $ incremental_term)
  in
  Cmd.v
    (Cmd.info "table5"
       ~doc:"Reproduce Table 5: occupancy vs N, Gaussian data (damped phasing).")
    term

let figure ~number ~model ~paper ~title () trials seed capacity csv =
  ignore number;
  let rows = sweep ~model ~trials ~seed ~capacity () in
  print_string (Render.sweep_figure ~title ~paper rows);
  let series = Sweep.series rows in
  Printf.printf "\noscillation amplitude: %.3f  damping ratio: %.2f\n"
    (Popan_core.Phasing.amplitude series)
    (Popan_core.Phasing.damping_ratio series);
  let ratios = Popan_core.Phasing.peak_ratios series in
  if ratios <> [] then
    Printf.printf "peak spacing ratios (phasing predicts ~4): %s\n"
      (String.concat ", " (List.map (Printf.sprintf "%.2f") ratios));
  Option.iter (fun path -> write_csv path rows) csv

let fig2_cmd =
  let run = figure ~number:2 ~model:Popan_rng.Sampler.Uniform
      ~paper:Paper_data.table4
      ~title:"Figure 2: occupancy vs number of points (uniform)"
  in
  let term =
    Term.(const run $ setup_term $ trials_term $ seed_term
          $ capacity_term ~default:8 $ csv_term)
  in
  Cmd.v (Cmd.info "fig2" ~doc:"Reproduce Figure 2 (ASCII).") term

let fig3_cmd =
  let run = figure ~number:3
      ~model:(Popan_rng.Sampler.Gaussian { sigma = gaussian_sigma })
      ~paper:Paper_data.table5
      ~title:"Figure 3: occupancy vs number of points (Gaussian)"
  in
  let term =
    Term.(const run $ setup_term $ trials_term $ seed_term
          $ capacity_term ~default:8 $ csv_term)
  in
  Cmd.v (Cmd.info "fig3" ~doc:"Reproduce Figure 3 (ASCII).") term

(* popan sweep: the occupancy sweep on a free size grid, built for
   large n. Sizes accept scientific notation, and before any tree is
   built the command prints the estimated peak arena footprint of the
   builds that can run at once — the -j largest — and refuses (without
   --mmap or --force) when it exceeds the machine's available memory. *)

let size_conv =
  (* "1048576", "1e6", "2.5e7" — any spelling of a positive whole
     number. Whole-number sizes up to 2^53 round-trip through the float
     parse exactly, far beyond any feasible build. *)
  let parse s =
    let fail () =
      Error
        (`Msg
          (Printf.sprintf
             "%s: expected a positive whole number of points (42, 1e6, 2.5e7)"
             s))
    in
    match int_of_string_opt s with
    | Some n -> if n > 0 then Ok n else fail ()
    | None -> (
      match float_of_string_opt s with
      | Some f
        when Float.is_finite f && Float.is_integer f && f >= 1.0
             && f <= 9.007199254740992e15 ->
        Ok (int_of_float f)
      | _ -> fail ())
  in
  Arg.conv ~docv:"N" (parse, fun ppf n -> Format.fprintf ppf "%d" n)

let mem_available_bytes () =
  (* MemAvailable is the kernel's own estimate of allocatable memory
     (free + reclaimable cache); absent on non-Linux systems, in which
     case the check is skipped rather than guessed. *)
  match open_in "/proc/meminfo" with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec scan () =
          match input_line ic with
          | exception End_of_file -> None
          | line -> (
            match String.split_on_char ':' line with
            | "MemAvailable" :: rest :: _ -> (
              match
                String.split_on_char ' ' (String.trim rest)
                |> List.filter (fun s -> s <> "")
              with
              | kb :: _ -> Option.map (fun k -> k * 1024) (int_of_string_opt kb)
              | [] -> None)
            | _ -> scan ())
        in
        scan ())

let human_bytes b =
  let f = float_of_int b in
  if f >= 1073741824.0 then Printf.sprintf "%.1f GiB" (f /. 1073741824.0)
  else if f >= 1048576.0 then Printf.sprintf "%.1f MiB" (f /. 1048576.0)
  else Printf.sprintf "%d B" b

let sweep_cmd =
  let run () sizes model_name trials seed capacity mmap force csv =
    let model =
      match String.lowercase_ascii model_name with
      | "uniform" -> Popan_rng.Sampler.Uniform
      | "gaussian" -> Popan_rng.Sampler.Gaussian { sigma = gaussian_sigma }
      | other ->
        failwith (Printf.sprintf "unknown model %S (uniform | gaussian)" other)
    in
    let sizes = match sizes with [] -> None | l -> Some l in
    let backing =
      if not mmap then None
      else
        match Store.default () with
        | Some s ->
          Some (Pr_arena.Mmap { dir = Store.segments_dir s ~name:"sweep" })
        | None ->
          failwith
            "--mmap places segment files under the artifact cache; set \
             --cache DIR (or POPAN_CACHE)"
    in
    (* The go / no-go memory check, before any tree is built: the
       builds that can run at once, priced together. The line's first
       token is a word, so no row parser takes it for a table row. *)
    let running, footprint =
      Sweep.concurrent_footprint ~capacity ?sizes ~trials ()
    in
    Printf.printf
      "concurrent builds: n = %s, estimated peak arena footprint %s%s\n"
      (String.concat " + " (List.map string_of_int running))
      (human_bytes footprint)
      (if mmap then " (mmap-backed: pages through the file cache)" else "");
    (match mem_available_bytes () with
    | None ->
      Printf.printf "available memory: unknown (no /proc/meminfo), proceeding\n"
    | Some avail ->
      Printf.printf "available memory: %s\n" (human_bytes avail);
      if (not mmap) && footprint > avail then
        if force then
          Printf.printf "footprint exceeds available memory; --force, so on we go\n"
        else begin
          Printf.eprintf
            "popan sweep: estimated footprint %s exceeds available %s\n\
             rerun with --mmap (build out-of-core under the cache) or --force\n"
            (human_bytes footprint) (human_bytes avail);
          exit 1
        end);
    let rows = Sweep.run ~capacity ?sizes ?backing ~model ~trials ~seed () in
    Printf.printf "%12s  %14s  %10s  %10s\n" "n" "leaves" "occupancy" "stddev";
    List.iter
      (fun (r : Sweep.row) ->
        Printf.printf "%12d  %14.1f  %10.4f  %10.4f\n" r.Sweep.points
          r.Sweep.nodes r.Sweep.occupancy r.Sweep.occupancy_stddev)
      rows;
    Option.iter (fun path -> write_csv path rows) csv
  in
  let sizes_term =
    let doc =
      "Comma-separated sample sizes. Scientific notation is accepted \
       ($(b,1e6), $(b,2.5e7)) as long as the value is a positive whole \
       number. Default: the paper's 64..4096 grid."
    in
    Arg.(value & opt (list size_conv) [] & info [ "sizes" ] ~docv:"N,..." ~doc)
  in
  let model_term =
    let doc = "Point model: uniform | gaussian." in
    Arg.(value & opt string "uniform" & info [ "model" ] ~docv:"MODEL" ~doc)
  in
  let trials_term =
    let doc = "Independent trials per size (large-n runs usually want 1)." in
    Arg.(value & opt int 1 & info [ "t"; "trials" ] ~docv:"TRIALS" ~doc)
  in
  let mmap_term =
    let doc =
      "Back the arena columns with mmap-ed segment files under the artifact \
       cache's $(b,segments/) directory (requires $(b,--cache) or \
       $(b,POPAN_CACHE)), so builds larger than RAM page through the file \
       cache instead of failing."
    in
    Arg.(value & flag & info [ "mmap" ] ~doc)
  in
  let force_term =
    let doc =
      "Build even when the estimated footprint exceeds available memory."
    in
    Arg.(value & flag & info [ "force" ] ~doc)
  in
  let term =
    Term.(const run $ setup_term $ sizes_term $ model_term $ trials_term
          $ seed_term $ capacity_term ~default:8 $ mmap_term $ force_term
          $ csv_term)
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Occupancy sweep on a free size grid, sized for large n: \
          scientific-notation sizes, an up-front memory check against the \
          estimated arena footprint and optional out-of-core (mmap) \
          arenas.")
    term

let ext_branching_cmd =
  let run () points trials seed capacity =
    Table.print
      (Render.branching_table
         (Ext.branching_study ~points ~trials ~seed ~capacity ()))
  in
  let term =
    Term.(const run $ setup_term $ points_term $ trials_term $ seed_term
          $ capacity_term ~default:4)
  in
  Cmd.v
    (Cmd.info "ext-branching"
       ~doc:"Extension: the model at branching factors 2, 4 and 8.")
    term

let ext_pmr_cmd =
  let run () seed threshold =
    Table.print (Render.pmr_table (Ext.pmr_study ~seed ~threshold ()))
  in
  let threshold =
    let doc = "PMR splitting threshold." in
    Arg.(value & opt int 4 & info [ "threshold" ] ~docv:"Q" ~doc)
  in
  let term = Term.(const run $ setup_term $ seed_term $ threshold) in
  Cmd.v
    (Cmd.info "ext-pmr"
       ~doc:"Extension: PMR quadtree population, model vs simulation.")
    term

let ext_pmr_sweep_cmd =
  let run () seed =
    Table.print (Render.pmr_sweep_table (Ext.pmr_threshold_sweep ~seed ()))
  in
  let term = Term.(const run $ setup_term $ seed_term) in
  Cmd.v
    (Cmd.info "ext-pmr-sweep"
       ~doc:"Extension: PMR model vs simulation across splitting thresholds.")
    term

let ext_bucketsweep_cmd =
  let run () trials seed =
    Table.print
      (Render.bucket_sweep_table (Ext.bucket_size_sweep ~trials ~seed ()))
  in
  let term = Term.(const run $ setup_term $ trials_term $ seed_term) in
  Cmd.v
    (Cmd.info "ext-bucketsweep"
       ~doc:
         "Extension: the b=2 model vs extendible hashing and EXCELL across \
          bucket sizes.")
    term

let ext_exthash_cmd =
  let run () trials seed =
    Table.print
      (Render.hash_table
         ~title:
           "Extension: extendible hashing utilization (oscillates around ln 2 = 0.693)"
         (Ext.ext_hash_sweep ~trials ~seed ()))
  in
  let term = Term.(const run $ setup_term $ trials_term $ seed_term) in
  Cmd.v
    (Cmd.info "ext-exthash"
       ~doc:"Extension: phasing in extendible hashing (Fagin et al.).")
    term

let ext_gridfile_cmd =
  let run () trials seed =
    Table.print
      (Render.hash_table ~title:"Extension: grid file utilization"
         (Ext.grid_file_sweep ~trials ~seed ()))
  in
  let term = Term.(const run $ setup_term $ trials_term $ seed_term) in
  Cmd.v
    (Cmd.info "ext-gridfile" ~doc:"Extension: grid file utilization sweep.")
    term

let ext_excell_cmd =
  let run () trials seed =
    Table.print
      (Render.hash_table
         ~title:"Extension: EXCELL utilization (regular decomposition)"
         (Ext.excell_sweep ~trials ~seed ()))
  in
  let term = Term.(const run $ setup_term $ trials_term $ seed_term) in
  Cmd.v
    (Cmd.info "ext-excell" ~doc:"Extension: EXCELL utilization sweep.")
    term

let ext_hashmodel_cmd =
  let run () trials seed bucket_size =
    Table.print
      (Render.hash_model_table
         (Ext.hash_model_study ~trials ~seed ~bucket_size ()))
  in
  let bucket =
    let doc = "Bucket capacity for the hash structures." in
    Arg.(value & opt int 8 & info [ "bucket-size" ] ~docv:"B" ~doc)
  in
  let term = Term.(const run $ setup_term $ trials_term $ seed_term $ bucket) in
  Cmd.v
    (Cmd.info "ext-hashmodel"
       ~doc:
         "Extension: the b=2 population model predicts extendible hashing \
          and EXCELL bucket occupancies.")
    term

let ext_trajectory_cmd =
  let run () trials seed capacity =
    let uniform =
      Trajectory.run ~capacity ~model:Popan_rng.Sampler.Uniform ~trials ~seed ()
    in
    Table.print
      (Render.trajectory_table
         ~title:
           "Extension: the sequence d_n vs the fixed point e (uniform data)"
         uniform);
    let gaussian =
      Trajectory.run ~capacity
        ~model:(Popan_rng.Sampler.Gaussian { sigma = gaussian_sigma })
        ~trials ~seed ()
    in
    Table.print
      (Render.trajectory_table
         ~title:
           "Extension: the sequence d_n vs the fixed point e (Gaussian data)"
         gaussian);
    let tv_series rows =
      Popan_core.Phasing.of_lists
        (List.map (fun (r : Trajectory.row) -> float_of_int r.Trajectory.points) rows)
        (List.map (fun (r : Trajectory.row) -> r.Trajectory.tv_to_theory) rows)
    in
    Printf.printf
      "TV-to-e oscillation: uniform amplitude %.3f (damping %.2f) vs gaussian \
       %.3f (damping %.2f).\n\
       The uniform d_n keeps cycling around e with period 4 in N - the \
       sequence has no limit, as SII reports; the Gaussian sequence \
       de-synchronizes and narrows toward the aging-offset residual.\n"
      (Trajectory.oscillation uniform)
      (Popan_core.Phasing.damping_ratio (tv_series uniform))
      (Trajectory.oscillation gaussian)
      (Popan_core.Phasing.damping_ratio (tv_series gaussian))
  in
  let term =
    Term.(const run $ setup_term $ trials_term $ seed_term
          $ capacity_term ~default:8)
  in
  Cmd.v
    (Cmd.info "ext-trajectory"
       ~doc:
         "Extension: measure d_1, d_2, ... and show it never converges under \
          uniform data (paper SII).")
    term

let ext_churn_cmd =
  let run () points trials seed capacity =
    Table.print
      (Render.churn_table
         (Ext.churn_study ~points ~trials ~seed ~capacity ()))
  in
  let term =
    Term.(const run $ setup_term $ points_term $ trials_term $ seed_term
          $ capacity_term ~default:4)
  in
  Cmd.v
    (Cmd.info "ext-churn"
       ~doc:
         "Extension: the node population at constant size under delete/insert \
          churn vs the insert-only fixed point.")
    term

let churn_cmd =
  let run () points trials seed capacity ops drift mixes checkpoint_every =
    let parse_mix s =
      let bad () =
        failwith
          (Printf.sprintf "bad mix %S (want INSERT or INSERT:UPDATE)" s)
      in
      let frac f = match float_of_string_opt (String.trim f) with
        | Some v when v >= 0.0 && v <= 1.0 -> v
        | _ -> bad ()
      in
      match String.split_on_char ':' (String.trim s) with
      | [ q ] -> (frac q, 0.0)
      | [ q; u ] -> (frac q, frac u)
      | _ -> bad ()
    in
    let mixes = List.map parse_mix (String.split_on_char ',' mixes) in
    Table.print
      (Render.churn_steady_table
         (Churn.study ~points ~trials ~seed ~ops ~drift_sigma:drift ~mixes
            ~checkpoint_every ~capacity ()))
  in
  let ops_term =
    let doc = "Churn operations per trial, after the initial build." in
    Arg.(value & opt int 10_000 & info [ "ops" ] ~docv:"OPS" ~doc)
  in
  let drift_term =
    let doc =
      "Per-axis displacement bound of an update's drift (moving objects \
       take uniform steps of at most $(docv), reflected at the walls)."
    in
    Arg.(value & opt float 0.01 & info [ "drift" ] ~docv:"SIGMA" ~doc)
  in
  let mixes_term =
    let doc =
      "Comma-separated operation mixes, each $(b,INSERT:UPDATE) (or just \
       $(b,INSERT)): the insert fraction among non-update operations and \
       the update fraction among all operations. The default covers a \
       balanced mix, a moving-object mix and a growing mix."
    in
    Arg.(value & opt string "0.5:0,0.5:0.5,0.75:0"
         & info [ "mixes" ] ~docv:"Q:U,..." ~doc)
  in
  let checkpoint_term =
    let doc =
      "Save a resumable checkpoint every $(docv) operations (0 = off; \
       requires $(b,--cache)). A killed run resumes from the newest \
       checkpoint with byte-identical results."
    in
    Arg.(value & opt int 0 & info [ "checkpoint-every" ] ~docv:"OPS" ~doc)
  in
  let term =
    Term.(const run $ setup_term $ points_term $ trials_term $ seed_term
          $ capacity_term ~default:4 $ ops_term $ drift_term $ mixes_term
          $ checkpoint_term)
  in
  Cmd.v
    (Cmd.info "churn"
       ~doc:
         "Arena churn steady state: run insert/delete/update streams at \
          several mixes and compare the settled node population with the \
          blended-transform prediction (delete modeled as the insert \
          transform's adjoint).")
    term

let ext_solvers_cmd =
  let run () = Table.print (Render.solver_table (Ext.solver_study ())) in
  let term = Term.(const run $ const ()) in
  Cmd.v
    (Cmd.info "ext-solvers"
       ~doc:"Extension: power iteration vs Newton vs closed form.")
    term

let ext_aging_cmd =
  let run () points trials seed =
    Table.print (Render.aging_table (Ext.aging_study ~points ~trials ~seed ()))
  in
  let term =
    Term.(const run $ setup_term $ points_term $ trials_term $ seed_term)
  in
  Cmd.v
    (Cmd.info "ext-aging"
       ~doc:"Extension: area-weighted aging correction vs Table 2's bias.")
    term

(* Every experiment [popan all] prints and [popan report] writes, in
   order: the paper's tables and figures, then the extensions. Each
   entry runs one experiment and returns what it shows, a figure as its
   title and ASCII plot. One list, so the two commands cannot drift
   apart. *)
type exhibit = Table of Table.t | Figure of string * string

let experiments ~points ~trials ~seed =
  let table f () = [ Table (f ()) ] in
  let sweep_exhibits ~model ~table_title ~figure_title ~paper () =
    let rows = sweep ~model ~trials ~seed ~capacity:8 () in
    [ Table (Render.sweep_table ~title:table_title ~paper rows);
      Figure
        (figure_title, Render.sweep_figure ~title:figure_title ~paper rows) ]
  in
  let paper =
    [ (fun () ->
        let cs = comparisons ~points ~trials ~seed in
        [ Table (Render.table1 cs); Table (Render.table2 cs) ]);
      table (fun () ->
          Render.table3
            (Depth_profile.run (Workload.make ~points ~trials ~seed ())));
      sweep_exhibits ~model:Popan_rng.Sampler.Uniform
        ~table_title:"Table 4: variation of occupancy with tree size (uniform)"
        ~figure_title:"Figure 2: occupancy vs number of points (uniform)"
        ~paper:Paper_data.table4;
      sweep_exhibits
        ~model:(Popan_rng.Sampler.Gaussian { sigma = gaussian_sigma })
        ~table_title:"Table 5: variation of occupancy with tree size (Gaussian)"
        ~figure_title:"Figure 3: occupancy vs number of points (Gaussian)"
        ~paper:Paper_data.table5 ]
  in
  let extensions =
    [ table (fun () ->
          Render.branching_table (Ext.branching_study ~points ~trials ~seed ()));
      table (fun () -> Render.pmr_table (Ext.pmr_study ~seed ~threshold:4 ()));
      table (fun () ->
          Render.pmr_sweep_table (Ext.pmr_threshold_sweep ~seed ()));
      table (fun () ->
          Render.hash_table
            ~title:
              "Extension: extendible hashing utilization (oscillates around ln 2 = 0.693)"
            (Ext.ext_hash_sweep ~trials ~seed ()));
      table (fun () ->
          Render.hash_table ~title:"Extension: grid file utilization"
            (Ext.grid_file_sweep ~trials:3 ~seed ()));
      table (fun () ->
          Render.hash_table
            ~title:"Extension: EXCELL utilization (regular decomposition)"
            (Ext.excell_sweep ~trials ~seed ()));
      table (fun () ->
          Render.hash_model_table
            (Ext.hash_model_study ~trials:5 ~seed ~bucket_size:8 ()));
      table (fun () ->
          Render.bucket_sweep_table (Ext.bucket_size_sweep ~trials:3 ~seed ()));
      table (fun () ->
          Render.trajectory_table
            ~title:"Extension: the sequence d_n vs the fixed point e (uniform)"
            (Trajectory.run ~capacity:8 ~model:Popan_rng.Sampler.Uniform
               ~trials ~seed ()));
      table (fun () ->
          Render.churn_table
            (Ext.churn_study ~points ~trials:5 ~seed ~capacity:4 ()));
      table (fun () ->
          Render.churn_steady_table
            (Churn.study ~points ~trials:5 ~seed ~capacity:4 ()));
      table (fun () -> Render.solver_table (Ext.solver_study ()));
      table (fun () ->
          Render.aging_table (Ext.aging_study ~points ~trials ~seed ())) ]
  in
  (paper, extensions)

let all_cmd =
  let run () points trials seed =
    let paper, extensions = experiments ~points ~trials ~seed in
    List.iter
      (fun experiment ->
        List.iter
          (function
            | Table t -> Table.print t
            | Figure (_, plot) ->
              print_string plot;
              print_newline ())
          (experiment ()))
      (paper @ extensions)
  in
  let term =
    Term.(const run $ setup_term $ points_term $ trials_term $ seed_term)
  in
  Cmd.v
    (Cmd.info "all" ~doc:"Run every table, figure and extension experiment.")
    term

let selftest_cmd =
  let run seed rounds =
    let master = Popan_rng.Xoshiro.of_int_seed seed in
    let failures = ref 0 in
    let check label violations =
      if violations <> [] then begin
        incr failures;
        Printf.printf "FAIL %s:\n" label;
        List.iter (fun v -> Printf.printf "  %s\n" v) violations
      end
    in
    let rows = ref [] in
    let structure name runner =
      let start = ref 0 in
      for round = 1 to rounds do
        let rng = Popan_rng.Xoshiro.split master in
        ignore round;
        start := !start + runner rng
      done;
      rows := [ name; Table.cell_int rounds; Table.cell_int !start ] :: !rows
    in
    let points rng n =
      Popan_rng.Sampler.points rng Popan_rng.Sampler.Uniform n
    in
    structure "PR quadtree" (fun rng ->
        let capacity = 1 + Popan_rng.Xoshiro.int rng 8 in
        let t =
          Popan_trees.Pr_quadtree.of_points ~capacity (points rng 400)
        in
        check "pr_quadtree" (Popan_trees.Pr_quadtree.check_invariants t);
        Popan_trees.Pr_quadtree.size t);
    structure "PR arena" (fun rng ->
        let capacity = 1 + Popan_rng.Xoshiro.int rng 8 in
        let pts = points rng 400 in
        let inc = Popan_trees.Pr_arena.of_points ~capacity pts in
        let bulk = Popan_trees.Pr_arena.of_points_bulk ~capacity pts in
        check "pr_arena incremental"
          (Popan_trees.Pr_arena.check_invariants inc);
        check "pr_arena bulk" (Popan_trees.Pr_arena.check_invariants bulk);
        if
          not
            (Popan_trees.Pr_quadtree.equal_structure
               (Popan_trees.Pr_arena.freeze inc)
               (Popan_trees.Pr_arena.freeze bulk))
        then check "pr_arena" [ "bulk and incremental builds disagree" ];
        Popan_trees.Pr_arena.size inc + Popan_trees.Pr_arena.size bulk);
    structure "bintree" (fun rng ->
        let capacity = 1 + Popan_rng.Xoshiro.int rng 6 in
        let t = Popan_trees.Bintree.of_points ~capacity (points rng 300) in
        check "bintree" (Popan_trees.Bintree.check_invariants t);
        Popan_trees.Bintree.size t);
    structure "octree" (fun rng ->
        let pts = Popan_rng.Sampler.points_nd rng ~dim:3 300 in
        let t = Popan_trees.Md_tree.of_points ~capacity:4 ~dim:3 pts in
        check "md_tree" (Popan_trees.Md_tree.check_invariants t);
        Popan_trees.Md_tree.size t);
    structure "PMR quadtree" (fun rng ->
        let segs =
          Popan_rng.Sampler.segments rng
            (Popan_rng.Sampler.Uniform_segments { mean_length = 0.1 })
            60
        in
        let t = Popan_trees.Pmr_quadtree.of_segments ~threshold:4 segs in
        check "pmr_quadtree" (Popan_trees.Pmr_quadtree.check_invariants t);
        Popan_trees.Pmr_quadtree.size t);
    structure "extendible hashing" (fun rng ->
        let t = Popan_trees.Ext_hash.create ~bucket_size:8 () in
        Popan_trees.Ext_hash.insert_all t (points rng 500);
        check "ext_hash" (Popan_trees.Ext_hash.check_invariants t);
        Popan_trees.Ext_hash.size t);
    structure "grid file" (fun rng ->
        let t = Popan_trees.Grid_file.create ~bucket_size:8 () in
        Popan_trees.Grid_file.insert_all t (points rng 500);
        check "grid_file" (Popan_trees.Grid_file.check_invariants t);
        Popan_trees.Grid_file.size t);
    structure "EXCELL" (fun rng ->
        let t = Popan_trees.Excell.create ~bucket_size:8 () in
        Popan_trees.Excell.insert_all t (points rng 500);
        check "excell" (Popan_trees.Excell.check_invariants t);
        Popan_trees.Excell.size t);
    structure "PM quadtree" (fun rng ->
        let candidates =
          Popan_rng.Sampler.segments rng
            (Popan_rng.Sampler.Uniform_segments { mean_length = 0.15 })
            20
        in
        let map =
          List.fold_left
            (fun m s ->
              if Popan_trees.Pm_quadtree.would_cross m s then m
              else Popan_trees.Pm_quadtree.insert_edge m s)
            (Popan_trees.Pm_quadtree.create ~rule:Popan_trees.Pm_quadtree.Pm2 ())
            candidates
        in
        check "pm_quadtree" (Popan_trees.Pm_quadtree.check_invariants map);
        Popan_trees.Pm_quadtree.edge_count map);
    structure "MX-CIF quadtree" (fun rng ->
        let boxes =
          List.init 150 (fun _ ->
              let cx = 0.1 +. (0.8 *. Popan_rng.Xoshiro.float rng) in
              let cy = 0.1 +. (0.8 *. Popan_rng.Xoshiro.float rng) in
              let h = 0.003 +. (0.05 *. Popan_rng.Xoshiro.float rng) in
              Popan_geom.Box.make ~xmin:(cx -. h) ~ymin:(cy -. h)
                ~xmax:(cx +. h) ~ymax:(cy +. h))
        in
        let t = Popan_trees.Mx_cif_quadtree.of_boxes boxes in
        check "mx_cif" (Popan_trees.Mx_cif_quadtree.check_invariants t);
        Popan_trees.Mx_cif_quadtree.size t);
    structure "region quadtree" (fun rng ->
        let image =
          Array.init 32 (fun _ ->
              Array.init 32 (fun _ -> Popan_rng.Xoshiro.float rng < 0.4))
        in
        let t = Popan_trees.Region_quadtree.of_bitmap image in
        check "region" (Popan_trees.Region_quadtree.check_invariants t);
        Popan_trees.Region_quadtree.black_area t);
    structure "solver residuals" (fun rng ->
        let capacity = 1 + Popan_rng.Xoshiro.int rng 9 in
        let branching = [| 2; 4; 8 |].(Popan_rng.Xoshiro.int rng 3) in
        let report =
          Population.expected_distribution ~branching ~capacity ()
        in
        if report.Fixed_point.residual > 1e-9 then
          check "solver"
            [ Printf.sprintf "residual %g at b=%d m=%d"
                report.Fixed_point.residual branching capacity ];
        capacity);
    Table.print
      (Table.make ~title:"self-test: randomized invariant checking"
         ~header:[ "structure"; "rounds"; "items checked" ]
         (List.rev !rows));
    if !failures = 0 then print_endline "all invariants held"
    else begin
      Printf.printf "%d failures\n" !failures;
      exit 1
    end
  in
  let rounds =
    let doc = "Randomized rounds per structure." in
    Arg.(value & opt int 10 & info [ "rounds" ] ~docv:"K" ~doc)
  in
  let term = Term.(const run $ seed_term $ rounds) in
  Cmd.v
    (Cmd.info "selftest"
       ~doc:"Fuzz every data structure's invariants with random workloads.")
    term

let measure_cmd =
  (* User-supplied input: surface load/validation failures as a clean
     diagnostic (Points_io reports file:line:reason), not a backtrace. *)
  let rec run input capacity max_depth no_normalize =
    match go input capacity max_depth no_normalize with
    | () -> ()
    | exception (Failure msg | Sys_error msg) ->
      Printf.eprintf "popan: %s\n" msg;
      exit 1
  and go input capacity max_depth no_normalize =
    if max_depth < 0 || max_depth > Popan_geom.Morton.bits_fine then
      failwith
        (Printf.sprintf "measure: --max-depth must be in [0, %d]"
           Popan_geom.Morton.bits_fine);
    let raw = Points_io.load input in
    if raw = [] then failwith "measure: no points in input";
    let points = if no_normalize then raw else Points_io.normalize raw in
    List.iter
      (fun p ->
        if not (Popan_geom.Point.in_unit_square p) then
          failwith
            "measure: points outside the unit square (drop --no-normalize?)")
      points;
    let tree =
      Popan_trees.Pr_arena.of_points_bulk ~max_depth ~capacity points
    in
    let n = List.length points in
    let measured =
      Distribution.of_weights
        (Popan_trees.Tree_stats.proportions
           (Popan_trees.Pr_arena.occupancy_histogram tree))
    in
    let report = Population.expected_distribution ~branching:4 ~capacity () in
    let predicted = report.Fixed_point.distribution in
    Printf.printf "dataset: %d points from %s%s\n" n input
      (if no_normalize then "" else " (normalized to the unit square)");
    Printf.printf "tree: capacity %d, %d leaves, height %d\n" capacity
      (Popan_trees.Pr_arena.leaf_count tree)
      (Popan_trees.Pr_arena.height tree);
    Printf.printf "measured distribution:  %s\n" (Distribution.to_string measured);
    Printf.printf "model (uniform data):   %s\n" (Distribution.to_string predicted);
    Printf.printf "measured occupancy %.3f vs model %.3f (TV %.3f)\n"
      (Popan_trees.Pr_arena.average_occupancy tree)
      (Distribution.average_occupancy predicted)
      (let classes =
         max (Distribution.types measured) (Distribution.types predicted)
       in
       let pad d =
         let v = Distribution.to_vec d in
         Popan_numerics.Vec.init classes (fun i ->
             if i < Popan_numerics.Vec.dim v then v.(i) else 0.0)
       in
       Distribution.total_variation
         (Distribution.of_vec (pad measured))
         (Distribution.of_vec (pad predicted)));
    Printf.printf
      "predicted leaves under uniformity: %.0f (actual %d; the gap measures \
       the data's non-uniformity)\n"
      (Population.predicted_nodes ~branching:4 ~capacity ~points:n)
      (Popan_trees.Pr_arena.leaf_count tree)
  in
  let input =
    let doc = "CSV file of points (two columns: x,y; header optional)." in
    Arg.(required & opt (some string) None & info [ "i"; "input" ] ~docv:"FILE" ~doc)
  in
  let max_depth =
    let doc = "Maximum tree depth, 0 to 42 (the arena's 2^-42 grid)." in
    Arg.(value & opt int 16 & info [ "max-depth" ] ~docv:"D" ~doc)
  in
  let no_normalize =
    let doc = "Points are already in the unit square; do not rescale." in
    Arg.(value & flag & info [ "no-normalize" ] ~doc)
  in
  let term =
    Term.(const run $ input $ capacity_term ~default:8 $ max_depth
          $ no_normalize)
  in
  Cmd.v
    (Cmd.info "measure"
       ~doc:
         "Analyze a user-supplied CSV point dataset against the population \
          model.")
    term

let report_cmd =
  let run () points trials seed output =
    let buffer = Buffer.create 65536 in
    let add s = Buffer.add_string buffer s in
    let table t = add (Table.render_markdown t ^ "\n") in
    let fenced s = add ("```\n" ^ s ^ "```\n\n") in
    add "# popan reproduction report\n\n";
    add
      (Printf.sprintf
         "Nelson & Samet, *A Population Analysis for Hierarchical Data \
          Structures* (SIGMOD 1987).\n\n\
          Parameters: %d points per trial, %d trials, seed %d. Regenerate \
          with `popan report`.\n\n"
         points trials seed);
    let paper, extensions = experiments ~points ~trials ~seed in
    let add_exhibits experiment =
      List.iter
        (function
          | Table t -> table t
          | Figure (title, plot) ->
            add ("### " ^ title ^ "\n\n");
            fenced plot)
        (experiment ())
    in
    List.iter add_exhibits paper;
    add "## Extensions\n\n";
    List.iter add_exhibits extensions;
    match output with
    | None -> print_string (Buffer.contents buffer)
    | Some path ->
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> output_string oc (Buffer.contents buffer));
      Printf.printf "wrote %s\n" path
  in
  let output =
    let doc = "Write the markdown report to $(docv) instead of stdout." in
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  let term =
    Term.(const run $ setup_term $ points_term $ trials_term $ seed_term
          $ output)
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Generate a full markdown reproduction report (every table, figure \
          and extension).")
    term

(* Cache maintenance *)

let require_store cache =
  match cache with
  | Some dir -> Store.open_store dir
  | None ->
    prerr_endline "popan cache: no directory (use --cache DIR or set POPAN_CACHE)";
    exit 2

let cache_stats_cmd =
  let run cache =
    let s = require_store cache in
    (* Any counts this process has accumulated (e.g. via the ambient
       POPAN_CACHE store) belong in the lifetime totals too — land them
       in stats.log before summing it, instead of losing them to the
       at_exit flush that runs after the report is printed. *)
    Option.iter Store.flush_counters (Store.default ());
    Store.flush_counters s;
    let entries, bytes = Store.disk_stats s in
    let c = Store.logged_counters s in
    Printf.printf "cache root: %s\n" (Store.root s);
    Printf.printf "entries:    %d (%d bytes)\n" entries bytes;
    Printf.printf "lifetime:   %d hits, %d misses, %d computes, %d puts\n"
      c.Store.hits c.Store.misses c.Store.computes c.Store.puts
  in
  let term = Term.(const run $ cache_term) in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Show entry count, disk usage and the lifetime hit/miss/compute \
          counters accumulated by cached runs.")
    term

let cache_gc_cmd =
  let run cache max_bytes =
    let s = require_store cache in
    let deleted, freed = Store.gc s ~max_bytes in
    Printf.printf "deleted %d entries (%d bytes freed)\n" deleted freed
  in
  let max_bytes =
    let doc = "Shrink the cache to at most $(docv) (oldest entries first)." in
    Arg.(required & opt (some int) None & info [ "max-bytes" ] ~docv:"BYTES" ~doc)
  in
  let term = Term.(const run $ cache_term $ max_bytes) in
  Cmd.v
    (Cmd.info "gc"
       ~doc:"Evict oldest entries until the cache fits under --max-bytes.")
    term

let cache_verify_cmd =
  let run cache =
    let s = require_store cache in
    let checked, problems = Store.verify s in
    Printf.printf "checked %d entries\n" checked;
    if problems = [] then print_endline "all entries verified"
    else begin
      List.iter (fun (path, msg) -> Printf.printf "BAD %s: %s\n" path msg)
        problems;
      Printf.printf "%d bad entries\n" (List.length problems);
      exit 1
    end
  in
  let term = Term.(const run $ cache_term) in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Re-read every entry, check framing, checksum and address; exit \
          nonzero when any entry is corrupt.")
    term

let cache_cmd =
  Cmd.group
    (Cmd.info "cache"
       ~doc:"Inspect and maintain the content-addressed artifact cache.")
    [ cache_stats_cmd; cache_gc_cmd; cache_verify_cmd ]

(* Observability inspection *)

let slurp path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let parse_obs_file file =
  match slurp file with
  | exception Sys_error msg ->
    Printf.eprintf "popan obs: %s\n" msg;
    exit 1
  | raw -> (
    match Obs_json.parse raw with
    | Ok json -> json
    | Error msg ->
      Printf.eprintf "popan obs: %s: %s\n" file msg;
      exit 1)

let obs_file_term =
  let doc =
    "A metrics registry JSON ($(b,--metrics-out)), Chrome trace JSON \
     ($(b,--trace)), line-JSON event log ($(b,--events)) or Prometheus \
     text exposition ($(b,popan obs top --prom)) file; the shape tells \
     them apart."
  in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)

(* An --events sink: one JSON object per line, each a valid event. *)
let validate_event_lines raw =
  let lines =
    List.filter
      (fun l -> String.trim l <> "")
      (String.split_on_char '\n' raw)
  in
  let rec go n = function
    | [] -> Ok n
    | l :: rest -> (
      match Obs_json.parse l with
      | Error msg -> Error (Printf.sprintf "event line %d: %s" (n + 1) msg)
      | Ok j -> (
        match Event.validate_line j with
        | Error msg -> Error (Printf.sprintf "event line %d: %s" (n + 1) msg)
        | Ok () -> go (n + 1) rest))
  in
  go 0 lines

let obs_validate_cmd =
  let run file =
    let raw =
      match slurp file with
      | exception Sys_error msg ->
        Printf.eprintf "popan obs: %s\n" msg;
        exit 1
      | raw -> raw
    in
    let trimmed = String.trim raw in
    let result =
      if trimmed = "" then Error "empty file"
      else if trimmed.[0] = '[' || trimmed.[0] = '{' then begin
        match Obs_json.parse raw with
        | Ok (Obs_json.List _ as json) ->
          Result.map
            (Printf.sprintf "valid Chrome trace (%d events)")
            (Trace.validate_chrome json)
        | Ok json when Obs_json.member "event" json <> None ->
          Result.map
            (Printf.sprintf "valid event log (%d events)")
            (validate_event_lines raw)
        | Ok json ->
          Result.map
            (Printf.sprintf "valid metrics registry (%d instruments)")
            (Metrics.validate_json json)
        | Error _ when trimmed.[0] = '{' ->
          (* Not one JSON document but starts like an object: a
             multi-line event log. *)
          Result.map
            (Printf.sprintf "valid event log (%d events)")
            (validate_event_lines raw)
        | Error msg -> Error msg
      end
      else
        Result.map
          (Printf.sprintf "valid Prometheus exposition (%d samples)")
          (Metrics.validate_prometheus raw)
    in
    match result with
    | Ok msg -> Printf.printf "%s: %s\n" file msg
    | Error msg ->
      Printf.eprintf "popan obs: %s: invalid: %s\n" file msg;
      exit 1
  in
  let term = Term.(const run $ obs_file_term) in
  Cmd.v
    (Cmd.info "validate"
       ~doc:
         "Check an emitted trace, metrics, event-log or Prometheus file \
          against its schema; exit nonzero when it does not conform.")
    term

let obs_report_trace file events =
  (* name -> (spans, total us, max us) *)
  let by_name = Hashtbl.create 16 in
  let tids = Hashtbl.create 8 in
  let spans = ref 0 and samples = ref 0 in
  List.iter
    (fun e ->
      let str k = Option.bind (Obs_json.member k e) Obs_json.string_opt in
      let num k = Option.bind (Obs_json.member k e) Obs_json.number_opt in
      (match Option.bind (Obs_json.member "tid" e) Obs_json.int_opt with
      | Some tid -> Hashtbl.replace tids tid ()
      | None -> ());
      match (str "ph", str "name") with
      | Some "X", Some name ->
        incr spans;
        let dur = Option.value (num "dur") ~default:0.0 in
        let c, total, mx =
          Option.value (Hashtbl.find_opt by_name name) ~default:(0, 0.0, 0.0)
        in
        Hashtbl.replace by_name name (c + 1, total +. dur, Float.max mx dur)
      | Some "C", _ -> incr samples
      | _ -> ())
    events;
  Printf.printf "%s: Chrome trace, %d spans, %d counter samples, %d domains\n"
    file !spans !samples (Hashtbl.length tids);
  Hashtbl.fold (fun name agg acc -> (name, agg) :: acc) by_name []
  |> List.sort (fun (_, (_, t1, _)) (_, (_, t2, _)) -> Float.compare t2 t1)
  |> List.iter (fun (name, (count, total, mx)) ->
         Printf.printf "  %-24s %7d spans  total %12.1f us  max %10.1f us\n"
           name count total mx)

let obs_report_metrics file json =
  (match Metrics.validate_json json with
  | Error msg ->
    Printf.eprintf "popan obs: %s: invalid metrics: %s\n" file msg;
    exit 1
  | Ok n -> Printf.printf "%s: metrics registry, %d instruments\n" file n);
  let section name render =
    match Obs_json.member name json with
    | Some (Obs_json.Obj fields) when fields <> [] ->
      Printf.printf "%s:\n" name;
      List.iter render fields
    | _ -> ()
  in
  section "counters" (fun (name, v) ->
      match Obs_json.int_opt v with
      | Some v -> Printf.printf "  %-24s %d\n" name v
      | None -> ());
  section "gauges" (fun (name, v) ->
      match Obs_json.number_opt v with
      | Some v -> Printf.printf "  %-24s %g\n" name v
      | None -> ());
  section "histograms" (fun (name, h) ->
      let count =
        match Option.bind (Obs_json.member "count" h) Obs_json.int_opt with
        | Some c -> c
        | None -> 0
      in
      match Option.bind (Obs_json.member "sum" h) Obs_json.number_opt with
      | Some sum -> Printf.printf "  %-24s count %-8d sum %g\n" name count sum
      | None -> Printf.printf "  %-24s count %d\n" name count)

let obs_report_cmd =
  let run file =
    match parse_obs_file file with
    | Obs_json.List events -> obs_report_trace file events
    | json -> obs_report_metrics file json
  in
  let term = Term.(const run $ obs_file_term) in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Summarize an emitted trace (span counts and durations per name) \
          or metrics file (every instrument).")
    term

(* Live telemetry against a running server: hold a connection and poll
   the Telemetry exchange. The server accepts clients sequentially, so
   a dashboard left open blocks other clients until it disconnects. *)

let snapshot_count (s : Sketch.snapshot) =
  Array.fold_left (fun acc (_, n) -> acc + n) s.zeros s.buckets

let render_telemetry socket (t : Popan_serve.Wire.telemetry) =
  Printf.printf "popan serve @ %s — epoch %d, %d points, %d batches, %d live \
                 epoch%s\n"
    socket t.epoch t.size t.batches t.live_epochs
    (if t.live_epochs = 1 then "" else "s");
  let find name =
    Option.map snd (Array.find_opt (fun (n, _) -> n = name) t.sketches)
  in
  let q s p = Option.value (Sketch.snapshot_quantile s p) ~default:0.0 in
  let any = ref false in
  Printf.printf "  %-8s %9s %11s %11s %11s %9s %9s\n" "kernel" "count"
    "lat p50" "lat p99" "lat max~" "vis p50" "vis p99";
  List.iter
    (fun kind ->
      match (find ("serve.latency." ^ kind), find ("serve.visited." ^ kind)) with
      | Some lat, vis when snapshot_count lat > 0 ->
        any := true;
        let vq p = match vis with Some v -> q v p | None -> 0.0 in
        Printf.printf "  %-8s %9d %10.0fus %10.0fus %10.0fus %9.0f %9.0f\n"
          kind (snapshot_count lat)
          (1e6 *. q lat 0.5)
          (1e6 *. q lat 0.99)
          (1e6 *. q lat 1.0)
          (vq 0.5) (vq 0.99)
      | _ -> ())
    [ "range"; "count"; "knn"; "nearest"; "cell" ];
  if not !any then
    print_string
      "  (no per-query sketches yet: start the server with --telemetry \
       and drive some batches, e.g. --warm)\n";
  (* What publishing costs: full copies and the bytes they moved, and
     the churn operations replayed into spares instead, per epoch. *)
  let counter name =
    match Obs_json.parse t.metrics_json with
    | Ok json ->
      Option.bind (Obs_json.member "counters" json) (fun c ->
          Option.bind (Obs_json.member name c) Obs_json.int_opt)
    | Error _ -> None
  in
  (match counter "serve.epochs.published" with
  | Some epochs when epochs > 0 ->
    let count name = Option.value (counter name) ~default:0 in
    Printf.printf
      "  publish: %d epochs, %d full copies, %.2f MB copied, %.1f ops \
       replayed per epoch\n"
      epochs
      (count "serve.publish.full")
      (float_of_int (count "serve.publish.bytes") /. 1048576.0)
      (float_of_int (count "serve.publish.replayed") /. float_of_int epochs)
  | _ -> ());
  (* How long requests waited for the writer's slice: the part of the
     publish the response and the client's turnaround did not hide. *)
  (match find "serve.writer.wait" with
  | Some w when snapshot_count w > 0 ->
    Printf.printf "  writer wait: %d joins, p50 %.0fus, p99 %.0fus\n"
      (snapshot_count w)
      (1e6 *. q w 0.5)
      (1e6 *. q w 0.99)
  | _ -> ());
  let tail n l =
    let len = List.length l in
    List.filteri (fun i _ -> i >= len - n) l
  in
  (match tail 5 (Array.to_list t.events) with
  | [] -> ()
  | evs ->
    print_string "  recent events:\n";
    List.iter (fun e -> Printf.printf "    %s\n" e) evs);
  (match tail 5 (Array.to_list t.flight) with
  | [] -> ()
  | fs ->
    print_string "  flight tail:\n";
    List.iter
      (fun (f : Flight.entry) ->
        Printf.printf "    %-8s epoch %-4d %8.0fus  visited %-6d%s\n"
          (Probe.serve_kernel_name f.kind)
          f.epoch (1e6 *. f.latency) f.visited
          (if f.note = "" then "" else " " ^ f.note))
      fs)

let obs_top_cmd =
  let run socket interval once prom quit =
    let module Wire = Popan_serve.Wire in
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () -> ()
    | exception Unix.Unix_error (e, _, _) ->
      Printf.eprintf "popan obs top: cannot connect to %s: %s\n" socket
        (Unix.error_message e);
      exit 1);
    let ic = Unix.in_channel_of_descr fd in
    let oc = Unix.out_channel_of_descr fd in
    set_binary_mode_in ic true;
    set_binary_mode_out oc true;
    let poll () =
      Wire.write_request oc Wire.Telemetry;
      match Wire.read_response ic with
      | Some (Ok (Wire.Telemetry_info t)) -> t
      | Some (Ok _) ->
        Printf.eprintf "popan obs top: unexpected response kind\n";
        exit 1
      | Some (Error e) ->
        Printf.eprintf "popan obs top: malformed response: %s\n" e;
        exit 1
      | None ->
        Printf.eprintf "popan obs top: server closed the connection\n";
        exit 1
    in
    let step () =
      let t = poll () in
      if prom then print_string t.Wire.prometheus
      else render_telemetry socket t;
      flush stdout
    in
    step ();
    if not once then
      while true do
        Unix.sleepf interval;
        step ()
      done;
    (* --quit: ask the server to shut down after the last scrape. The
       accept loop otherwise keeps the server alive for the next
       client; scripted one-shot scrapes want the whole thing torn
       down. *)
    if quit then begin
      Wire.write_request oc Wire.Quit;
      match Wire.read_response ic with
      | Some (Ok Wire.Bye) -> ()
      | _ ->
        Printf.eprintf "popan obs top: server did not acknowledge Quit\n";
        exit 1
    end
  in
  let socket_term =
    let doc = "The Unix socket a $(b,popan serve --socket) is listening on." in
    Arg.(required
         & opt (some string) None
         & info [ "socket" ] ~docv:"PATH" ~doc)
  in
  let interval_term =
    let doc = "Seconds between polls." in
    Arg.(value & opt float 1.0 & info [ "interval" ] ~docv:"SECONDS" ~doc)
  in
  let once_term =
    let doc = "Poll once and exit (the server keeps running and accepts \
               its next client; add $(b,--quit) to shut it down too)." in
    Arg.(value & flag & info [ "once" ] ~doc)
  in
  let quit_term =
    let doc =
      "Send the server a Quit after the final poll, shutting it down \
       (pairs with $(b,--once) for scripted one-shot scrapes)."
    in
    Arg.(value & flag & info [ "quit" ] ~doc)
  in
  let prom_term =
    let doc =
      "Print the server's Prometheus text exposition verbatim instead of \
       the dashboard (pipe into $(b,popan obs validate))."
    in
    Arg.(value & flag & info [ "prom" ] ~doc)
  in
  let term =
    Term.(const run $ socket_term $ interval_term $ once_term $ prom_term
          $ quit_term)
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Poll a running server's Telemetry exchange over its socket and \
          render per-kernel latency/visited quantiles, recent events and \
          the flight-recorder tail.")
    term

let obs_cmd =
  Cmd.group
    (Cmd.info "obs"
       ~doc:
         "Inspect and validate observability output: --trace / \
          --metrics-out / --events files, Prometheus exports, and a live \
          server's telemetry.")
    [ obs_report_cmd; obs_validate_cmd; obs_top_cmd ]

(* The serving engine *)

let serve_cmd =
  let run () points capacity seed churn_ops insert_fraction update_fraction
      drift socket mmap telemetry no_flight slow_ms warm =
    let config =
      {
        Popan_serve.Server.default_config with
        base_points = points;
        capacity;
        seed;
        churn_ops;
        insert_fraction;
        update_fraction;
        drift_sigma = drift;
        mmap_dir = mmap;
      }
    in
    (* The flight recorder is on by default — it is the "what just
       happened" answer and costs a few scalar writes per query — while
       sketches and counters ride the metrics registry behind
       --telemetry. *)
    if not no_flight then Flight.enable ();
    if telemetry then Metrics.set_enabled true;
    Option.iter
      (fun ms -> Flight.set_slow_threshold (ms /. 1000.0))
      slow_ms;
    (* The wire protocol owns stdout; everything human-facing goes to
       stderr. *)
    Printf.eprintf
      "popan serve: %d points, capacity %d, seed %d, %d churn ops/batch%s\n%!"
      points capacity seed churn_ops
      (match socket with
      | Some path -> Printf.sprintf ", socket %s" path
      | None -> ", stdin/stdout");
    Popan_serve.Server.run ?socket ~warm_batches:warm config;
    Printf.eprintf "popan serve: shut down cleanly\n%!"
  in
  let churn_ops_term =
    let doc =
      "Churn operations the writer applies concurrently with each batch \
       (a new epoch is published per batch); 0 serves a static tree."
    in
    Arg.(value & opt int 256 & info [ "churn-ops" ] ~docv:"OPS" ~doc)
  in
  let insert_fraction_term =
    let doc = "Fraction of non-update churn operations that insert." in
    Arg.(value & opt float 0.5 & info [ "insert-fraction" ] ~docv:"Q" ~doc)
  in
  let update_fraction_term =
    let doc = "Fraction of churn operations that move a live point." in
    Arg.(value & opt float (1.0 /. 3.0)
         & info [ "update-fraction" ] ~docv:"U" ~doc)
  in
  let drift_term =
    let doc = "Per-axis bound of an update's displacement." in
    Arg.(value & opt float 0.01 & info [ "drift" ] ~docv:"SIGMA" ~doc)
  in
  let socket_term =
    let doc =
      "Listen on a Unix socket at $(docv) instead of stdin/stdout, \
       accepting clients one after another until one sends Quit."
    in
    Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)
  in
  let mmap_term =
    let doc =
      "Back the live arena's point columns with mmap segment files under \
       $(docv); shutdown releases them."
    in
    Arg.(value & opt (some string) None & info [ "mmap" ] ~docv:"DIR" ~doc)
  in
  let points_term =
    let doc = "Initial population of the served tree." in
    Arg.(value & opt int 10_000 & info [ "n"; "points" ] ~docv:"N" ~doc)
  in
  let telemetry_term =
    let doc =
      "Enable the metrics registry for the run: per-kernel latency and \
       visited-node sketches, counters and the batch-latency histogram, \
       all served back through the Telemetry exchange and $(b,popan obs \
       top)."
    in
    Arg.(value & flag & info [ "telemetry" ] ~doc)
  in
  let no_flight_term =
    let doc = "Disable the always-on flight recorder of recent requests." in
    Arg.(value & flag & info [ "no-flight" ] ~doc)
  in
  let slow_ms_term =
    let doc =
      "Log any query slower than $(docv) milliseconds as a \
       $(b,serve.slow_query) event (the slow-query log)."
    in
    Arg.(value
         & opt (some float) None
         & info [ "slow-query-ms" ] ~docv:"MS" ~doc)
  in
  let warm_term =
    let doc =
      "Answer $(docv) deterministic mixed self-batches of 1024 queries \
       before serving, so telemetry has data to show immediately."
    in
    Arg.(value & opt int 0 & info [ "warm" ] ~docv:"BATCHES" ~doc)
  in
  let term =
    Term.(const run $ setup_term $ points_term $ capacity_term ~default:8
          $ seed_term $ churn_ops_term $ insert_fraction_term
          $ update_fraction_term $ drift_term $ socket_term $ mmap_term
          $ telemetry_term $ no_flight_term $ slow_ms_term $ warm_term)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve batched spatial queries (range / k-NN / point-in-cell) over \
          the framed wire protocol, answering each batch from a pinned \
          epoch snapshot while a concurrent churn writer publishes the \
          next epoch. Responses are byte-identical at every -j.")
    term

let main_cmd =
  let doc =
    "population analysis for hierarchical data structures (Nelson & Samet, \
     SIGMOD 1987)"
  in
  Cmd.group
    (Cmd.info "popan" ~version:"1.0.0" ~doc)
    [
      theory_cmd; table1_cmd; table2_cmd; table3_cmd; table4_cmd; table5_cmd;
      fig2_cmd; fig3_cmd; sweep_cmd; churn_cmd; ext_branching_cmd; ext_pmr_cmd;
      ext_pmr_sweep_cmd;
      ext_bucketsweep_cmd; ext_exthash_cmd;
      ext_gridfile_cmd; ext_excell_cmd; ext_hashmodel_cmd; ext_trajectory_cmd; ext_churn_cmd;
      ext_solvers_cmd; ext_aging_cmd; measure_cmd; selftest_cmd; all_cmd;
      report_cmd; cache_cmd; obs_cmd; serve_cmd;
    ]

let () = exit (Cmd.eval main_cmd)
