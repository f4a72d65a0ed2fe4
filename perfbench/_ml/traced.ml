(* The traced run: a per-layer profile of one workload, driven by
   perfbench/run.py --trace 1.

   traced WORKLOAD --popan EXE --socket PATH --seed N --seconds S
       --trace-out FILE

   Every call into a layer's public functions runs inside a
   [Trace.with_span] carrying its batch id; the spans go to FILE as
   Chrome trace-event JSON when the run ends, and each span name's self
   time (its duration less its child spans') is reported. The run:

   - times an untraced client against a spawned [popan serve] for S/3
     seconds, for the transport overhead;
   - replays the workload's batches on an in-process replica with the
     same configuration, seed and telemetry, timing codec,
     [Server.run_queries], [Server.run_batch] on the pinned epoch, each
     kernel as [run_batch] calls it, and the snapshot a publish copies —
     alternate batches with spans and without, which prices the tracing
     itself;
   - times population, bulk build, churn and the sampler;
   - times the sweep grid trial by trial and at two domains.

   Every traced run reports every layer. sweep-phasing serves nothing,
   so its serve layers are profiled on serve-hot's configuration; the
   serve workloads run no sweep, so theirs are profiled on the sweep
   grid. Re-run pieces must reproduce the answers they re-run: client
   replies, decoded responses, run_batch and kernel answers against the
   replica's run_queries, and sweep rows at one domain against two. *)

module Json = Popan_obs.Obs_json
module Trace = Popan_obs.Trace
module Clock = Popan_obs.Clock
module Flight = Popan_obs.Flight
module Metrics = Popan_obs.Metrics
module Probe = Popan_obs.Probe
module Wire = Popan_serve.Wire
module Server = Popan_serve.Server
module Epoch = Popan_serve.Epoch
module Codec = Popan_store.Codec
module Pr_arena = Popan_trees.Pr_arena
module Workload = Popan_experiments.Workload
module Sweep = Popan_experiments.Sweep
module Sampler = Popan_rng.Sampler
module Xoshiro = Popan_rng.Xoshiro

let metrics = ref []
let notes = ref []
let failures = ref []
let attempted = ref 0

let report ?(samples = 1) name value = metrics := (name, value, samples) :: !metrics

let check what ok =
  incr attempted;
  if not ok then failures := what :: !failures

let span ~batch name f = Trace.with_span ~args:[ ("batch", Trace.Int batch) ] name f

let timed f =
  let t0 = Clock.now_ns () in
  let r = f () in
  (r, Clock.now_ns () - t0)

let median = function
  | [] -> nan
  | l ->
    let a = Array.of_list l in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let ms ns = float_of_int ns *. 1e-6
let us ns = float_of_int ns *. 1e-3

(* Kernels *)

let kinds = [| "range"; "count"; "knn"; "nearest"; "cell" |]

let kind_of (q : Wire.query) =
  match q with
  | Wire.Range _ -> 0
  | Wire.Count _ -> 1
  | Wire.Knn _ -> 2
  | Wire.Nearest _ -> 3
  | Wire.Cell _ -> 4

(* The per-query call [Server.run_batch]'s tasks make, chosen as it
   chooses: the instrumented kernels when telemetry is on, the plain
   ones when it is off. *)
let served_eval arena ~epoch =
  if Probe.serve_telemetry_on () then Server.eval_instrumented arena ~epoch
  else Server.eval arena

(* Visited nodes of one query, from its kernel's [_visited] twin. *)
let visited arena (q : Wire.query) =
  match q with
  | Wire.Range b -> snd (Pr_arena.query_box_visited arena b)
  | Wire.Count b -> snd (Pr_arena.count_in_box_visited arena b)
  | Wire.Knn (k, p) -> snd (Pr_arena.k_nearest_visited arena k p)
  | Wire.Nearest p -> snd (Pr_arena.nearest_visited arena p)
  | Wire.Cell p -> snd (Pr_arena.cell_at_visited arena p)

(* Bytes a snapshot copies: four 8-byte point columns per slot up to
   the high-water mark and three 8-byte node columns per node in use —
   computed, not measured. *)
let snapshot_mb arena =
  let slots = Pr_arena.slot_high_water arena in
  let nodes = Pr_arena.leaf_count arena + Pr_arena.internal_count arena in
  float_of_int ((32 * slots) + (24 * nodes)) /. 1048576.0

(* The serve layers *)

(* Batches the replica answers; the even ones carry spans. *)
let replica_batches = 96

(* The flight recorder and the metrics registry, as [popan serve] runs
   them for the workload (see [Spec.serve_args]). *)
let set_telemetry on =
  if on then Flight.enable () else Flight.disable ();
  Metrics.set_enabled on

let profile_serve w ~popan ~socket ~seed ~seconds =
  let batches = replica_batches in
  (* Untraced client: the round trip the replica's pieces must explain. *)
  let client =
    let c = Serve_client.start ~popan ~socket w ~seed in
    let loop =
      Serve_client.closed_loop ~max_batches:batches ~warmup:3 c w ~seed ~seconds:(seconds /. 3.0)
    in
    Serve_client.quit c;
    loop
  in
  let client_rtt = median (Array.to_list client.Serve_client.rtt_ms) in
  (* Population, bulk build and churn, built as Server.create builds
     them, on a private arena. *)
  let config = Spec.config w ~seed in
  let spec =
    Workload.Churn.make ~points:config.Server.base_points ~trials:1 ~seed
      ~ops:(max 1 config.Server.churn_ops)
      ~insert_fraction:config.Server.insert_fraction
      ~update_fraction:config.Server.update_fraction
      ~drift_sigma:config.Server.drift_sigma ()
  in
  let rng = List.hd (Workload.Churn.map_trials spec ~f:(fun _ rng -> rng)) in
  let state, population_ns =
    timed (fun () -> span ~batch:(-1) "workload.churn_start" (fun () ->
        Workload.Churn.start spec ~rng))
  in
  report "workload.base_population_ms" (ms population_ns);
  let base = Array.to_list (Workload.Churn.live state) in
  let live, build_ns =
    timed (fun () -> span ~batch:(-1) "arena.of_points_bulk" (fun () ->
        Pr_arena.of_points_bulk ~capacity:config.Server.capacity base))
  in
  report "arena.bulk_build_ms" (ms build_ns);
  let churn_ops = 20_000 in
  let (), churn_ns =
    timed (fun () -> span ~batch:(-1) "arena.churn" (fun () ->
        for _ = 1 to churn_ops do
          match Workload.Churn.step spec state with
          | Workload.Churn.Insert p -> Pr_arena.insert live p
          | Workload.Churn.Delete p -> ignore (Pr_arena.delete live p : bool)
          | Workload.Churn.Update (p, q) -> ignore (Pr_arena.update live p q : bool)
        done))
  in
  report ~samples:churn_ops "arena.churn_ns_per_op" (float_of_int churn_ns /. float_of_int churn_ops);
  Pr_arena.release live;
  (* The replica, with the served telemetry. *)
  set_telemetry w.Spec.telemetry;
  let t = Server.create config in
  let rq_on = ref [] and rq_off = ref [] and rb_off = ref [] in
  let req_enc = ref [] and resp_enc = ref [] and resp_dec = ref [] in
  let req_bytes = ref 0 and resp_bytes = ref 0 and queries = ref 0 in
  let minor_gcs = ref 0 and major_gcs = ref 0 and minor_words = ref 0.0 in
  let kernel_ns = Array.make 5 0 and kernel_n = Array.make 5 0 and kernel_visits = Array.make 5 0 in
  let snapshots = ref [] and snap_mb = ref 0.0 in
  let digests = Hashtbl.create 64 in
  for k = 0 to batches - 1 do
    let traced = k mod 2 = 0 in
    if traced then Trace.enable () else Trace.disable ();
    span ~batch:k "batch" (fun () ->
        let qs = Spec.batch w ~seed k in
        let n = Array.length qs in
        let req, ns =
          timed (fun () -> span ~batch:k "wire.request_encode" (fun () ->
              Codec.encode Wire.request (Wire.Batch qs)))
        in
        req_enc := us ns :: !req_enc;
        req_bytes := !req_bytes + String.length req;
        (* Hold the answering epoch so run_batch can re-run on it after
           a publish supersedes it. *)
        let e = Epoch.pin (Server.epochs t) in
        let gc0 = Gc.quick_stat () in
        let (epoch, answers), ns =
          timed (fun () -> span ~batch:k "server.run_queries" (fun () ->
              Server.run_queries t qs))
        in
        let gc1 = Gc.quick_stat () in
        let rq = if traced then rq_on else rq_off in
        rq := ms ns :: !rq;
        minor_gcs := !minor_gcs + gc1.Gc.minor_collections - gc0.Gc.minor_collections;
        major_gcs := !major_gcs + gc1.Gc.major_collections - gc0.Gc.major_collections;
        minor_words := !minor_words +. gc1.Gc.minor_words -. gc0.Gc.minor_words;
        queries := !queries + n;
        let digest = Verify.digest answers in
        (* Per-query digests for the kernel checks, so no answer stays
           live into the re-runs: live young data would be promoted by
           their minor collections and bill them for it. *)
        let per_query = Array.map (fun a -> Verify.digest [| a |]) answers in
        Hashtbl.replace digests k (epoch, digest);
        check (Printf.sprintf "batch %d: answered from a different epoch" k) (epoch = Epoch.id e);
        let resp, ns =
          timed (fun () -> span ~batch:k "wire.response_encode" (fun () ->
              Codec.encode Wire.response (Wire.Answers { epoch; answers })))
        in
        resp_enc := us ns :: !resp_enc;
        resp_bytes := !resp_bytes + String.length resp;
        let decoded, ns =
          timed (fun () -> span ~batch:k "wire.response_decode" (fun () ->
              Codec.decode Wire.response resp))
        in
        resp_dec := us ns :: !resp_dec;
        check (Printf.sprintf "batch %d: decoded response differs" k)
          (Verify.agree ~expected:(epoch, digest) (Verify.observe ~arity:n (Some (Ok decoded)))
           = Ok ());
        let arena = Epoch.arena e in
        let again, ns =
          timed (fun () -> span ~batch:k "server.run_batch" (fun () ->
              Server.run_batch ~epoch:(Epoch.id e) (Server.pool t) arena qs))
        in
        if not traced then rb_off := ms ns :: !rb_off;
        check (Printf.sprintf "batch %d: run_batch differs from run_queries" k)
          (Verify.digest again = digest);
        let eval = served_eval arena ~epoch:(Epoch.id e) in
        Array.iteri
          (fun kind name ->
            let idx = List.filter (fun i -> kind_of qs.(i) = kind) (List.init n Fun.id) in
            let idx = Array.of_list idx in
            let out, ns =
              timed (fun () -> span ~batch:k ("arena." ^ name) (fun () ->
                  Array.map (fun i -> eval qs.(i)) idx))
            in
            kernel_ns.(kind) <- kernel_ns.(kind) + ns;
            kernel_n.(kind) <- kernel_n.(kind) + Array.length idx;
            Array.iter (fun i -> kernel_visits.(kind) <- kernel_visits.(kind) + visited arena qs.(i)) idx;
            check (Printf.sprintf "batch %d: %s kernel answers differ" k name)
              (Array.for_all2 (fun a i -> Verify.digest [| a |] = per_query.(i)) out idx))
          kinds;
        if k mod 8 = 0 then begin
          let copy, ns =
            timed (fun () -> span ~batch:k "arena.snapshot" (fun () -> Pr_arena.snapshot arena))
          in
          snapshots := ms ns :: !snapshots;
          snap_mb := snapshot_mb arena;
          Pr_arena.release copy
        end;
        Epoch.unpin (Server.epochs t) e)
  done;
  Trace.enable ();
  (* Telemetry's price per query as serve-publish pays it: the
     instrumented kernels against the plain ones, paired and alternated,
     on serve-publish's queries with its telemetry on. *)
  set_telemetry true;
  let e = Epoch.pin (Server.epochs t) in
  let arena = Epoch.arena e and epoch = Epoch.id e in
  let plain = ref 0 and instrumented = ref 0 and count = ref 0 in
  span ~batch:(-1) "obs.instrumented_overhead" (fun () ->
      for k = 0 to 15 do
        Array.iteri
          (fun i q ->
            let run_plain () = snd (timed (fun () -> Server.eval arena q)) in
            let run_instr () = snd (timed (fun () -> Server.eval_instrumented arena ~epoch q)) in
            if i mod 2 = 0 then begin
              plain := !plain + run_plain ();
              instrumented := !instrumented + run_instr ()
            end
            else begin
              instrumented := !instrumented + run_instr ();
              plain := !plain + run_plain ()
            end;
            incr count)
          (Spec.batch Spec.serve_publish ~seed k)
      done);
  Epoch.unpin (Server.epochs t) e;
  Server.shutdown t;
  set_telemetry false;
  (* The client's replies against the replica's answers. *)
  Array.iteri
    (fun k o ->
      match Hashtbl.find_opt digests k with
      | Some expected ->
        let agreed = Verify.agree ~expected o in
        check
          (Printf.sprintf "client batch %d: %s" k
             (match agreed with Ok () -> "" | Error m -> m))
          (agreed = Ok ())
      | None -> ())
    client.Serve_client.observed;
  let nb = float_of_int batches and nq = float_of_int !queries in
  (* Spans off, both: run_batch and run_queries compare like with like. *)
  let rq_off_ms = median !rq_off and rq_on_ms = median !rq_on and rb_ms = median !rb_off in
  let codec_us = median !req_enc +. median !resp_enc +. median !resp_dec in
  let snap_ms = median !snapshots in
  report "wire.request_bytes" (float_of_int !req_bytes /. nb) ~samples:batches;
  report "wire.response_bytes" (float_of_int !resp_bytes /. nb) ~samples:batches;
  report "wire.request_encode_us" (median !req_enc) ~samples:batches;
  report "wire.response_encode_us" (median !resp_enc) ~samples:batches;
  report "wire.response_decode_us" (median !resp_dec) ~samples:batches;
  report "transport.overhead_ms" (client_rtt -. rq_off_ms -. (codec_us *. 1e-3));
  report "server.run_queries_ms" rq_off_ms ~samples:(List.length !rq_off);
  report "server.run_batch_ms" rb_ms ~samples:(List.length !rb_off);
  report "server.writer_publish_ms" (rq_off_ms -. rb_ms);
  report "server.minor_gcs_per_batch" (float_of_int !minor_gcs /. nb) ~samples:batches;
  report "server.major_gcs_per_batch" (float_of_int !major_gcs /. nb) ~samples:batches;
  report "server.minor_words_per_query" (!minor_words /. nq) ~samples:!queries;
  Array.iteri
    (fun kind name ->
      let n = float_of_int kernel_n.(kind) in
      report ("arena." ^ name ^ "_us") (us kernel_ns.(kind) /. n) ~samples:kernel_n.(kind);
      report ("arena." ^ name ^ "_visited") (float_of_int kernel_visits.(kind) /. n)
        ~samples:kernel_n.(kind))
    kinds;
  report "arena.snapshot_ms" snap_ms ~samples:(List.length !snapshots);
  report "arena.snapshot_mb" !snap_mb;
  report "obs.instrumented_overhead_ns"
    (float_of_int (!instrumented - !plain) /. float_of_int !count) ~samples:!count;
  report "trace.overhead_pct" (100.0 *. ((rq_on_ms /. rq_off_ms) -. 1.0))
    ~samples:(List.length !rq_on);
  let covered = rb_ms +. if w.Spec.churn_ops > 0 then snap_ms else 0.0 in
  report "trace.coverage_pct" (100.0 *. covered /. rq_off_ms);
  notes :=
    Printf.sprintf
      "serve layers on %s (telemetry %s): %d replica batches, the even ones with spans; \
       client p50 %.3f ms over %d batches; trace.coverage_pct counts run_batch%s against \
       run_queries"
      w.Spec.name (if w.Spec.telemetry then "on" else "off") batches client_rtt
      (Array.length client.Serve_client.rtt_ms)
      (if w.Spec.churn_ops > 0 then " + snapshot" else "")
    :: !notes

(* The sweep layers *)

let profile_sweep ~seed =
  let sizes = Spec.sweep_sizes () in
  let largest = List.fold_left max 1 sizes in
  let rng = Xoshiro.of_int_seed seed in
  let draws =
    List.init 3 (fun rep ->
        snd (timed (fun () -> span ~batch:rep "rng.sampler_point" (fun () ->
            for _ = 1 to largest do
              ignore (Sampler.point rng Sampler.Uniform : Popan_geom.Point.t)
            done))))
  in
  report "rng.ns_per_point" (median (List.map float_of_int draws) /. float_of_int largest) ~samples:3;
  let pts = Array.init largest (fun _ -> Sampler.point rng Sampler.Uniform) in
  let builds =
    List.init 3 (fun rep ->
        let tree, ns =
          timed (fun () -> span ~batch:rep "arena.bulk_of_fn" (fun () ->
              Pr_arena.bulk_of_fn ~capacity:Spec.capacity ~n:largest (fun i -> pts.(i))))
        in
        Pr_arena.release tree;
        float_of_int ns)
  in
  report "arena.build_ns_per_point" (median builds /. float_of_int largest) ~samples:3;
  let sweep ~sizes ~trials ~jobs =
    Sweep.run ~capacity:Spec.capacity ~sizes ~jobs ~model:Sampler.Uniform ~trials ~seed ()
  in
  List.iteri
    (fun i n ->
      let _, ns = timed (fun () -> span ~batch:i "sweep.trial" (fun () -> sweep ~sizes:[ n ] ~trials:1 ~jobs:1)) in
      report (Printf.sprintf "sweep.trial_ms.n%d" n) (ms ns))
    sizes;
  let trials = Spec.sweep_trials and jobs = Spec.sweep_jobs in
  let seq_rows, seq_ns =
    timed (fun () -> span ~batch:0 "sweep.run_jobs1" (fun () -> sweep ~sizes ~trials ~jobs:1))
  in
  let par_rows, par_ns =
    timed (fun () -> span ~batch:0 "sweep.run_jobs2" (fun () -> sweep ~sizes ~trials ~jobs))
  in
  check "sweep rows at 2 domains differ from 1 domain" (seq_rows = par_rows);
  report "parallel.efficiency"
    (float_of_int seq_ns /. (float_of_int jobs *. float_of_int par_ns));
  notes :=
    Printf.sprintf
      "sweep layers on the grid %s; parallel.efficiency = Sweep.run at 1 domain (%.0f ms) / \
       (%d x Sweep.run at %d domains, %.0f ms), %d trials per size"
      (String.concat "," (List.map string_of_int sizes))
      (ms seq_ns) jobs jobs (ms par_ns) trials
    :: !notes

(* Self time per span name: a span's duration less the part its child
   spans cover. Spans nest within each recording domain. *)
let self_times events =
  let table = Hashtbl.create 32 in
  let add name self total =
    let s, t, c = Option.value (Hashtbl.find_opt table name) ~default:(0.0, 0.0, 0) in
    Hashtbl.replace table name (s +. self, t +. total, c + 1)
  in
  let by_tid = Hashtbl.create 4 in
  List.iter
    (fun (e : Trace.event) ->
      if e.Trace.value = None then
        Hashtbl.replace by_tid e.Trace.tid
          (e :: Option.value (Hashtbl.find_opt by_tid e.Trace.tid) ~default:[]))
    events;
  Hashtbl.iter
    (fun _ evs ->
      let evs = List.rev evs in
      let children = Hashtbl.create 256 in
      (* A stack of open spans: (index, depth, end). *)
      let stack = ref [] in
      List.iteri
        (fun i (e : Trace.event) ->
          let rec pop () =
            match !stack with
            | (_, d, stop) :: rest when d >= e.Trace.depth || stop < e.Trace.ts ->
              stack := rest;
              pop ()
            | _ -> ()
          in
          pop ();
          (match !stack with
          | (parent, _, _) :: _ ->
            Hashtbl.replace children parent
              (e.Trace.dur +. Option.value (Hashtbl.find_opt children parent) ~default:0.0)
          | [] -> ());
          stack := (i, e.Trace.depth, e.Trace.ts +. e.Trace.dur) :: !stack)
        evs;
      List.iteri
        (fun i (e : Trace.event) ->
          let child = Option.value (Hashtbl.find_opt children i) ~default:0.0 in
          add e.Trace.name ((e.Trace.dur -. child) /. 1000.0) (e.Trace.dur /. 1000.0))
        evs)
    by_tid;
  Hashtbl.fold
    (fun name (self, total, count) acc ->
      (name, Json.Obj [ ("self_ms", Json.Float self); ("total_ms", Json.Float total);
                        ("spans", Json.Int count) ]) :: acc)
    table []
  |> List.sort compare

let () =
  let name = Sys.argv.(1) in
  let popan = Spec.arg "--popan" and socket = Spec.arg "--socket" in
  let seed = int_of_string (Spec.arg "--seed") in
  let seconds = float_of_string (Spec.arg "--seconds") in
  let out = Spec.arg "--trace-out" in
  let w =
    match Spec.find_serve name with
    | Some w -> w
    | None when name = "sweep-phasing" -> Spec.serve_hot
    | None -> failwith ("unknown workload " ^ name)
  in
  Trace.enable ();
  profile_serve w ~popan ~socket ~seed ~seconds;
  profile_sweep ~seed;
  Trace.disable ();
  let self = self_times (Trace.events ()) in
  Trace.write_file out;
  if Trace.dropped () > 0 then
    failures := Printf.sprintf "trace ring dropped %d records" (Trace.dropped ()) :: !failures;
  let result =
    Json.Obj
      [
        ("ocaml", Json.Str Sys.ocaml_version);
        ("metrics", Json.Obj (List.rev_map (fun (n, v, _) -> (n, Json.Float v)) !metrics));
        ("samples", Json.Obj (List.rev_map (fun (n, _, s) -> (n, Json.Int s)) !metrics));
        ("self_time_ms", Json.Obj self);
        ("notes", Json.List (List.rev_map (fun s -> Json.Str s) !notes));
        ("attempted", Json.Int !attempted);
        ("failures", Json.List (List.rev_map (fun s -> Json.Str s) !failures));
      ]
  in
  print_endline (Json.to_string result)
