(* End-to-end serving smoke, run by `make check`: spawn `popan serve`
   over pipes at jobs 1/2/4, drive a 10k-query mixed batch (plus a
   second batch, so a churn-published epoch gets exercised) through the
   framed wire protocol, and verify every response byte-for-byte against
   an in-process oracle built from the same seed, with a Stats between
   the two batches that must read the oracle's epoch and size — the
   server joins the first batch's churn slice before it answers. Then
   assert a truncated frame is refused, not misparsed. The concurrent churn
   writer is live throughout (256 ops per batch): epoch ids must
   advance 0 -> 1 and answers must still match the oracle exactly — a
   torn snapshot would show up as a byte diff. *)

module Point = Popan_geom.Point
module Box = Popan_geom.Box
module Xoshiro = Popan_rng.Xoshiro
module Codec = Popan_store.Codec
module Wire = Popan_serve.Wire
module Server = Popan_serve.Server
module Metrics = Popan_obs.Metrics
module Sketch = Popan_obs.Sketch
module Obs_json = Popan_obs.Obs_json

let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt

let popan_exe =
  if Array.length Sys.argv > 1 then Sys.argv.(1)
  else "_build/default/bin/popan.exe"

let base_points = 10_000
let seed = 1987
let churn_ops = 256
let batch_size = 10_000

(* The 10k mixed batch: ranges, counts, k-NN, nearest, cells. *)
let queries =
  let rng = Xoshiro.of_int_seed 271828 in
  Array.init batch_size (fun i ->
      let p = Point.make (Xoshiro.float rng) (Xoshiro.float rng) in
      match i mod 5 with
      | 0 ->
        let w = 0.005 +. (0.05 *. Xoshiro.float rng) in
        let x = (1.0 -. w) *. Xoshiro.float rng in
        let y = (1.0 -. w) *. Xoshiro.float rng in
        Wire.Range (Box.make ~xmin:x ~ymin:y ~xmax:(x +. w) ~ymax:(y +. w))
      | 1 ->
        Wire.Count
          (Box.make ~xmin:0.0 ~ymin:0.0
             ~xmax:(Float.max 0.01 p.Point.x)
             ~ymax:(Float.max 0.01 p.Point.y))
      | 2 -> Wire.Knn (1 + (i mod 16), p)
      | 3 -> Wire.Nearest p
      | _ -> Wire.Cell p)

let answer_bytes answers = Codec.encode (Codec.array Wire.answer) answers

let config =
  { Server.default_config with base_points; seed; churn_ops; jobs = Some 1 }

(* The oracle: the same server, in process, sequential. Its churn
   stream and initial population are the spawned servers' own, so its
   per-batch answers are the unique correct response bytes. It joins
   each batch's churn slice before anything else, so the (epoch, size)
   of a Stats between the batches is what the served Stats must read
   once it has joined the first slice. *)
let oracle_batches, oracle_mid, oracle_size =
  let t = Server.create config in
  let stats () =
    match Server.handle t Wire.Stats with
    | Wire.Stats_info { epoch; size; _ }, _ -> (epoch, size)
    | _ -> fail "oracle: bad Stats response"
  in
  Fun.protect
    ~finally:(fun () -> Server.shutdown t)
    (fun () ->
      let b1 = Server.run_queries t queries in
      ignore (Server.epochs t : Popan_serve.Epoch.t);
      let mid = stats () in
      let b2 = Server.run_queries t queries in
      ignore (Server.epochs t : Popan_serve.Epoch.t);
      ([ b1; b2 ], mid, snd (stats ())))

(* Pipe plumbing *)

let spawn_serve args =
  (* cloexec: the child must not inherit the write end of its own stdin
     pipe, or closing ours would never deliver it EOF. *)
  let stdin_r, stdin_w = Unix.pipe ~cloexec:true () in
  let stdout_r, stdout_w = Unix.pipe ~cloexec:true () in
  let argv = Array.of_list ((popan_exe :: "serve" :: args) @ []) in
  let pid =
    Unix.create_process popan_exe argv stdin_r stdout_w Unix.stderr
  in
  Unix.close stdin_r;
  Unix.close stdout_w;
  let oc = Unix.out_channel_of_descr stdin_w in
  let ic = Unix.in_channel_of_descr stdout_r in
  set_binary_mode_out oc true;
  set_binary_mode_in ic true;
  (pid, ic, oc)

let wait_clean pid what =
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _, Unix.WEXITED c -> fail "%s: server exited with code %d" what c
  | _, Unix.WSIGNALED s -> fail "%s: server killed by signal %d" what s
  | _, Unix.WSTOPPED s -> fail "%s: server stopped by signal %d" what s

let expect_response ic what =
  match Wire.read_response ic with
  | Some (Ok resp) -> resp
  | Some (Error e) -> fail "%s: malformed response frame: %s" what e
  | None -> fail "%s: server closed the stream early" what

(* One full conversation at a given job count: a batch, stats, a
   second batch, stats, quit. The first Stats arrives while the first
   batch's churn slice may still be running, so the server must join
   it before answering. Returns the per-batch (epoch, answer bytes),
   the first Stats' (epoch, size) and the final reported tree size.
   [extra] rides along on the command line — the [--no-batch-sort]
   runs reuse the whole conversation. *)
let converse ?(extra = []) ?(what = "jobs") jobs =
  let what = Printf.sprintf "%s %d" what jobs in
  let pid, ic, oc =
    spawn_serve
      ([ "-j"; string_of_int jobs;
         "-n"; string_of_int base_points;
         "--seed"; string_of_int seed;
         "--churn-ops"; string_of_int churn_ops ]
      @ extra)
  in
  let batch () =
    Wire.write_request oc (Wire.Batch queries);
    match expect_response ic what with
    | Wire.Answers { epoch; answers } -> (epoch, answer_bytes answers)
    | _ -> fail "%s: expected Answers" what
  in
  let b1 = batch () in
  Wire.write_request oc Wire.Stats;
  let mid =
    match expect_response ic what with
    | Wire.Stats_info { epoch; size; _ } -> (epoch, size)
    | _ -> fail "%s: expected Stats_info" what
  in
  let b2 = batch () in
  Wire.write_request oc Wire.Stats;
  let size, batches =
    match expect_response ic what with
    | Wire.Stats_info { size; batches; _ } -> (size, batches)
    | _ -> fail "%s: expected Stats_info" what
  in
  Wire.write_request oc Wire.Quit;
  (match expect_response ic what with
  | Wire.Bye -> ()
  | _ -> fail "%s: expected Bye" what);
  close_out oc;
  close_in ic;
  wait_clean pid what;
  if batches <> 2 then fail "%s: reported %d batches, expected 2" what batches;
  ([ b1; b2 ], mid, size)

let check_against_oracle ?(what = "jobs") jobs (batches, mid, size) =
  let (epoch, mid_size), (oracle_epoch, oracle_mid_size) = (mid, oracle_mid) in
  if epoch <> oracle_epoch || mid_size <> oracle_mid_size then
    fail "%s %d: Stats between the batches read epoch %d, size %d; oracle \
          epoch %d, size %d" what jobs epoch mid_size oracle_epoch
      oracle_mid_size;
  List.iteri
    (fun i ((epoch, bytes), (oracle_epoch, oracle_answers)) ->
      if epoch <> oracle_epoch then
        fail "%s %d batch %d: answered from epoch %d, oracle epoch %d" what
          jobs (i + 1) epoch oracle_epoch;
      if not (String.equal bytes (answer_bytes oracle_answers)) then
        fail "%s %d batch %d: answers differ from the sequential oracle"
          what jobs (i + 1))
    (List.combine batches oracle_batches);
  if size <> oracle_size then
    fail "%s %d: served tree size %d, oracle %d" what jobs size oracle_size

(* A frame that lies about its length: header says 64 bytes, body has
   8, then EOF. The server must answer Refused and stop — never guess
   at resynchronization. *)
let truncated_frame_refused () =
  let pid, ic, oc = spawn_serve [ "-n"; "100"; "--churn-ops"; "0" ] in
  output_byte oc 0;
  output_byte oc 0;
  output_byte oc 0;
  output_byte oc 64;
  output_string oc "PSTO\x01\x00\x00\x00";
  flush oc;
  close_out oc;
  (match expect_response ic "truncation" with
  | Wire.Refused _ -> ()
  | _ -> fail "truncation: expected Refused");
  (match Wire.read_response ic with
  | None -> ()
  | Some _ -> fail "truncation: server kept talking after a broken frame");
  close_in ic;
  wait_clean pid "truncation"

(* Sequential clients on one Unix socket: the server must survive a
   client that hangs up without Quit, accept the next one with its
   churn state intact — the second client's batch is the oracle's
   SECOND batch — and shut down only when a client finally sends
   Quit. *)
let multi_client_socket () =
  let what = "socket" in
  let dir = Filename.temp_file "popan_serve" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let path = Filename.concat dir "sock" in
  let argv =
    [| popan_exe; "serve"; "--socket"; path; "-j"; "2";
       "-n"; string_of_int base_points;
       "--seed"; string_of_int seed;
       "--churn-ops"; string_of_int churn_ops |]
  in
  let pid = Unix.create_process popan_exe argv Unix.stdin Unix.stdout Unix.stderr in
  let rec wait_sock tries =
    if not (Sys.file_exists path) then
      if tries = 0 then fail "%s: server never bound %s" what path
      else begin
        Unix.sleepf 0.05;
        wait_sock (tries - 1)
      end
  in
  wait_sock 200;
  let connect () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX path);
    let ic = Unix.in_channel_of_descr fd in
    let oc = Unix.out_channel_of_descr fd in
    set_binary_mode_in ic true;
    set_binary_mode_out oc true;
    (fd, ic, oc)
  in
  let batch_of (oracle_epoch, oracle_answers) client ic oc =
    Wire.write_request oc (Wire.Batch queries);
    match expect_response ic what with
    | Wire.Answers { epoch; answers } ->
      if epoch <> oracle_epoch then
        fail "%s client %d: answered from epoch %d, oracle epoch %d" what
          client epoch oracle_epoch;
      if not (String.equal (answer_bytes answers) (answer_bytes oracle_answers))
      then fail "%s client %d: answers differ from the oracle" what client
    | _ -> fail "%s client %d: expected Answers" what client
  in
  (* Client 1 answers a batch and hangs up mid-conversation — no Quit. *)
  let fd1, ic1, oc1 = connect () in
  batch_of (List.nth oracle_batches 0) 1 ic1 oc1;
  flush oc1;
  Unix.close fd1;
  (* Client 2 finds the same server, churn advanced by exactly one
     batch, and shuts it down. *)
  let fd2, ic2, oc2 = connect () in
  batch_of (List.nth oracle_batches 1) 2 ic2 oc2;
  Wire.write_request oc2 Wire.Stats;
  (match expect_response ic2 what with
  | Wire.Stats_info { batches; _ } ->
    if batches <> 2 then
      fail "%s: second client sees %d batches, expected 2" what batches
  | _ -> fail "%s: expected Stats_info" what);
  Wire.write_request oc2 Wire.Quit;
  (match expect_response ic2 what with
  | Wire.Bye -> ()
  | _ -> fail "%s: expected Bye" what);
  flush oc2;
  Unix.close fd2;
  wait_clean pid what;
  (try Sys.remove path with Sys_error _ -> ());
  try Unix.rmdir dir with Unix.Unix_error _ -> ()

(* The telemetry conversation: a server spawned with [--telemetry]
   answers the same two batches, then a [Telemetry] scrape must come
   back internally consistent — a validating Prometheus exposition and
   metrics registry, every query accounted for in the latency sketches,
   the epoch-publish events retained, and a populated flight ring. *)
let telemetry_scrape_consistent () =
  let what = "telemetry" in
  let pid, ic, oc =
    spawn_serve
      [ "-j"; "2";
        "-n"; string_of_int base_points;
        "--seed"; string_of_int seed;
        "--churn-ops"; string_of_int churn_ops;
        "--telemetry" ]
  in
  Wire.write_request oc (Wire.Batch queries);
  (match expect_response ic what with
  | Wire.Answers _ -> ()
  | _ -> fail "%s: expected Answers" what);
  Wire.write_request oc (Wire.Batch queries);
  (match expect_response ic what with
  | Wire.Answers _ -> ()
  | _ -> fail "%s: expected Answers" what);
  Wire.write_request oc Wire.Telemetry;
  let info =
    match expect_response ic what with
    | Wire.Telemetry_info info -> info
    | _ -> fail "%s: expected Telemetry_info" what
  in
  Wire.write_request oc Wire.Quit;
  (match expect_response ic what with
  | Wire.Bye -> ()
  | _ -> fail "%s: expected Bye" what);
  close_out oc;
  close_in ic;
  wait_clean pid what;
  if info.Wire.batches <> 2 then
    fail "%s: scrape reports %d batches, expected 2" what info.Wire.batches;
  (match Metrics.validate_prometheus info.Wire.prometheus with
  | Ok n when n > 0 -> ()
  | Ok _ -> fail "%s: empty Prometheus exposition" what
  | Error m -> fail "%s: invalid Prometheus exposition: %s" what m);
  (match Obs_json.parse info.Wire.metrics_json with
  | Error m -> fail "%s: unparseable metrics JSON: %s" what m
  | Ok j -> (
    match Metrics.validate_json j with
    | Ok _ -> ()
    | Error m -> fail "%s: invalid metrics JSON: %s" what m));
  let latency_total =
    Array.fold_left
      (fun acc (name, snap) ->
        if String.length name >= 14 && String.sub name 0 14 = "serve.latency."
        then
          match Sketch.of_snapshot snap with
          | Ok s -> acc + Sketch.count s
          | Error m -> fail "%s: sketch %s invalid: %s" what name m
        else acc)
      0 info.Wire.sketches
  in
  if latency_total <> 2 * batch_size then
    fail "%s: latency sketches hold %d records, expected %d" what
      latency_total (2 * batch_size);
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i =
      i + nl <= hl && (String.sub hay i nl = needle || go (i + 1))
    in
    go 0
  in
  if
    not
      (Array.exists
         (fun l -> contains l "serve.epoch.publish")
         info.Wire.events)
  then fail "%s: no epoch-publish event in the scrape" what;
  if Array.length info.Wire.flight = 0 then
    fail "%s: flight recorder came back empty" what

let () =
  if not (Sys.file_exists popan_exe) then
    fail "serve smoke: %s not found (run from the repo root after a build)"
      popan_exe;
  List.iter
    (fun jobs ->
      let result = converse jobs in
      check_against_oracle jobs result)
    [ 1; 2; 4 ];
  (* The oracle answers with Morton batch-sorting on (the default):
     matching it with the sort disabled proves the schedule never
     reaches the wire. *)
  List.iter
    (fun jobs ->
      let result = converse ~extra:[ "--no-batch-sort" ] ~what:"no-sort" jobs in
      check_against_oracle ~what:"no-sort" jobs result)
    [ 1; 2; 4 ];
  multi_client_socket ();
  truncated_frame_refused ();
  telemetry_scrape_consistent ();
  Printf.printf
    "serve smoke: 2x %d-query batches over the wire byte-identical to the \
     sequential oracle at jobs 1/2/4, with and without --no-batch-sort \
     (epochs 0 -> 1 under live churn, a Stats between them at the \
     oracle's epoch and size); two sequential socket clients served, \
     state intact; truncated frame refused; full-telemetry \
     scrape consistent (every query in the sketches, publish events \
     retained)\n"
    batch_size
