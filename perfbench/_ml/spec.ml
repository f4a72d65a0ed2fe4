(* The workloads: each serve workload's server configuration and seeded
   query batches, and the sweep workload's size grid. The end-to-end
   client, the traced replica and the tests all read them from here, so
   the queries a run sends are the queries its oracle answers. *)

module Point = Popan_geom.Point
module Box = Popan_geom.Box
module Xoshiro = Popan_rng.Xoshiro
module Wire = Popan_serve.Wire
module Server = Popan_serve.Server
module Sweep = Popan_experiments.Sweep

let served_points = 1 lsl 20
let capacity = 8

(* Side of a square expected to hold [k] of [n] uniform points. *)
let side_for ~n k = sqrt (float_of_int k /. float_of_int n)

type serve = {
  name : string;
  churn_ops : int;
  telemetry : bool;
      (** the metrics registry and the flight recorder, both on or both
          off: on, [Server.run_batch] takes the instrumented kernels *)
  batch_size : int;
  region : float * float;
      (** every query is anchored in the square [[lo, hi)^2]: a box lies
          inside it, a probe point is drawn from it *)
  count_max_side : float option;
      (** [Some s]: Count box sides are uniform up to [s], so containment
          pruning engages; [None]: Count boxes are sized like Range
          boxes, about 16 expected points *)
}

(* A centred hot square of side 1/8: about 16k of the 2^20 points. Its
   kernels' working set stays cache-resident, and the server never
   publishes. *)
let serve_hot =
  {
    name = "serve-hot";
    churn_ops = 0;
    telemetry = false;
    batch_size = 1024;
    region = (0.5 -. (1.0 /. 16.0), 0.5 +. (1.0 /. 16.0));
    count_max_side = Some (1.0 /. 16.0);
  }

(* Small batches anchored anywhere, so the per-batch writer spawn and
   whole-arena snapshot dominate; 16-point boxes keep the answer size
   flat in n. *)
let serve_publish =
  {
    name = "serve-publish";
    churn_ops = 256;
    telemetry = true;
    batch_size = 64;
    region = (0.0, 1.0);
    count_max_side = None;
  }

let serve_workloads = [ serve_hot; serve_publish ]

let find_serve name = List.find_opt (fun w -> w.name = name) serve_workloads

(* The churn mix is the server's default (insert fraction 0.5, update
   fraction 1/3, drift 0.01); only the size, capacity, seed, churn rate
   and a one-job pool are set. *)
let config w ~seed =
  {
    Server.default_config with
    jobs = Some 1;
    capacity;
    base_points = served_points;
    seed;
    churn_ops = w.churn_ops;
  }

(* The command line that serves [config w ~seed]. Telemetry on is
   [--telemetry] with the flight recorder at its default (on); off is
   [--no-flight], so no batch takes the instrumented kernels. *)
let serve_args w ~seed ~socket =
  [ "serve"; "--socket"; socket; "--no-cache";
    "-j"; "1";
    "-n"; string_of_int served_points;
    "-m"; string_of_int capacity;
    "--seed"; string_of_int seed;
    "--churn-ops"; string_of_int w.churn_ops ]
  @ if w.telemetry then [ "--telemetry" ] else [ "--no-flight" ]

(* Query [i] of a batch; the kinds rotate so each is one fifth. *)
let query w rng i =
  let lo, hi = w.region in
  let span = hi -. lo in
  let coord extent = lo +. ((span -. extent) *. Xoshiro.float rng) in
  let point () =
    let x = coord 0.0 in
    let y = coord 0.0 in
    Point.make x y
  in
  let box width height =
    let x = coord width in
    let y = coord height in
    Box.make ~xmin:x ~ymin:y ~xmax:(x +. width) ~ymax:(y +. height)
  in
  let sixteen () =
    let s = side_for ~n:served_points 16 in
    let aspect = 2.0 ** ((2.0 *. Xoshiro.float rng) -. 1.0) in
    box (s *. aspect) (s /. aspect)
  in
  match i mod 5 with
  | 0 -> Wire.Range (sixteen ())
  | 1 -> (
    match w.count_max_side with
    | None -> Wire.Count (sixteen ())
    | Some most ->
      let least = side_for ~n:served_points 16 in
      let width = least +. ((most -. least) *. Xoshiro.float rng) in
      let height = least +. ((most -. least) *. Xoshiro.float rng) in
      Wire.Count (box width height))
  | 2 ->
    let k = 1 + Xoshiro.int rng 16 in
    Wire.Knn (k, point ())
  | 3 -> Wire.Nearest (point ())
  | _ -> Wire.Cell (point ())

(* Batch [k] of a run: a pure function of (workload, seed, k). The salt
   keeps batch streams apart from the server's population stream, which
   is seeded with the bare seed. *)
let batch w ~seed k =
  let rng = Xoshiro.of_int_seed (((seed lsl 21) lor k) lxor 0x5bd1e995) in
  Array.init w.batch_size (query w rng)

(* The paper's grid at four steps per quadrupling over one phasing
   period, 2^18 .. 2^20. *)
let sweep_sizes () = Sweep.grid ~lo:(1 lsl 18) ~hi:(1 lsl 20) ()

(* The value after [name] on the command line. *)
let arg name =
  let rec find = function
    | k :: v :: _ when k = name -> v
    | _ :: rest -> find rest
    | [] -> failwith ("missing " ^ name)
  in
  find (Array.to_list Sys.argv)

(* Trials per size in one sweep command: its 5 builds take about 0.8 s
   at two domains, so a run times a few dozen commands. *)
let sweep_trials = 1
let sweep_jobs = 2
