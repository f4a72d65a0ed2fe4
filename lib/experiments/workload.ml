open Import

type t = {
  model : Sampler.point_model;
  points : int;
  trials : int;
  seed : int;
}

let make ?(model = Sampler.Uniform) ?(points = 1000) ?(trials = 10)
    ?(seed = 1987) () =
  if points <= 0 then invalid_arg "Workload.make: points <= 0";
  if trials <= 0 then invalid_arg "Workload.make: trials <= 0";
  { model; points; trials; seed }

let trial_rngs w =
  let master = Xoshiro.of_int_seed w.seed in
  List.init w.trials (fun _ -> Xoshiro.split master)

(* Pre-split one generator per trial, in trial order. Sampling a child
   generator never touches the master, so every trial's point stream is
   the same whether the trials are then consumed sequentially or fanned
   out across domains. *)
let trial_rng_array w =
  let master = Xoshiro.of_int_seed w.seed in
  let rngs = Array.make w.trials master in
  for i = 0 to w.trials - 1 do
    rngs.(i) <- Xoshiro.split master
  done;
  rngs

let points_of_trial w i =
  if i < 0 || i >= w.trials then
    invalid_arg "Workload.points_of_trial: trial index out of range";
  let master = Xoshiro.of_int_seed w.seed in
  let rng = ref master in
  for _ = 0 to i do
    rng := Xoshiro.split master
  done;
  Sampler.points !rng w.model w.points

let trial_points w =
  List.map (fun rng -> Sampler.points rng w.model w.points) (trial_rngs w)

let map_trials ?jobs w ~f =
  (* Each trial samples its own points inside the task, so only live
     trials are materialized; with [jobs = 1] this is the sequential
     streaming path, byte-identical to the historical one. *)
  let rngs = trial_rng_array w in
  Parallel.map_list ?jobs w.trials ~f:(fun i ->
      f i (Sampler.points rngs.(i) w.model w.points))

module Churn = struct
  type spec = {
    base : t;
    ops : int;
    insert_fraction : float;
    update_fraction : float;
    drift_sigma : float;
  }

  let make ?model ?points ?trials ?seed ?(ops = 10_000)
      ?(insert_fraction = 0.5) ?(update_fraction = 0.0)
      ?(drift_sigma = 0.01) () =
    if ops < 0 then invalid_arg "Workload.Churn.make: ops < 0";
    if not (insert_fraction >= 0.0 && insert_fraction <= 1.0) then
      invalid_arg "Workload.Churn.make: insert_fraction outside [0, 1]";
    if not (update_fraction >= 0.0 && update_fraction <= 1.0) then
      invalid_arg "Workload.Churn.make: update_fraction outside [0, 1]";
    if not (drift_sigma >= 0.0 && drift_sigma < 1.0) then
      invalid_arg "Workload.Churn.make: drift_sigma outside [0, 1)";
    { base = make ?model ?points ?trials ?seed (); ops; insert_fraction;
      update_fraction; drift_sigma }

  type event =
    | Insert of Point.t
    | Delete of Point.t
    | Update of Point.t * Point.t

  (* The live multiset as two coordinate columns, [n] points in
     generator order: no boxed point is kept, so a large base
     population costs 16 bytes a point outside the OCaml heap, and
     churn promotes nothing to the major heap. *)
  type state = {
    rng : Xoshiro.t;
    mutable xs : Xoshiro.floats;
    mutable ys : Xoshiro.floats;
    mutable n : int;
    mutable ops_done : int;
  }

  let column n = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n

  let restore ~rng ~live ~ops_done =
    if ops_done < 0 then invalid_arg "Workload.Churn.restore: ops_done < 0";
    let n = Array.length live in
    let xs = column (max 16 n) and ys = column (max 16 n) in
    Array.iteri
      (fun i (p : Point.t) ->
        xs.{i} <- p.Point.x;
        ys.{i} <- p.Point.y)
      live;
    { rng; xs; ys; n; ops_done }

  (* Draw straight into the columns, in the order [Sampler.points]
     draws in. *)
  let start spec ~rng =
    let n = spec.base.points in
    let xs = column (max 16 n) and ys = column (max 16 n) in
    Sampler.fill rng spec.base.model xs ys n;
    { rng; xs; ys; n; ops_done = 0 }

  let point s k = Point.make s.xs.{k} s.ys.{k}
  let live s = Array.init s.n (point s)

  let live_columns s = (s.xs, s.ys)

  let live_count s = s.n
  let ops_done s = s.ops_done
  let rng s = s.rng

  let push s (p : Point.t) =
    if s.n = Bigarray.Array1.dim s.xs then begin
      let grow c =
        let g = column (2 * s.n) in
        Bigarray.Array1.(blit c (sub g 0 s.n));
        g
      in
      s.xs <- grow s.xs;
      s.ys <- grow s.ys
    end;
    s.xs.{s.n} <- p.Point.x;
    s.ys.{s.n} <- p.Point.y;
    s.n <- s.n + 1

  (* One uniform step of at most [drift_sigma] per axis, reflected at
     the unit-square walls and clamped just inside the open upper edge
     so the drifted point stays insertable. *)
  let drift spec s (p : Point.t) =
    let wall = 1.0 -. epsilon_float in
    let bounce v =
      let v = if v < 0.0 then -.v else v in
      let v = if v > 1.0 then 2.0 -. v else v in
      if v < 0.0 then 0.0 else if v > wall then wall else v
    in
    let dx = spec.drift_sigma *. ((2.0 *. Xoshiro.float s.rng) -. 1.0) in
    let dy = spec.drift_sigma *. ((2.0 *. Xoshiro.float s.rng) -. 1.0) in
    { Point.x = bounce (p.Point.x +. dx); Point.y = bounce (p.Point.y +. dy) }

  let step spec s =
    let u = Xoshiro.float s.rng in
    let event =
      if u < spec.update_fraction && s.n > 0 then begin
        let k = Xoshiro.int s.rng s.n in
        let old = point s k in
        let moved = drift spec s old in
        s.xs.{k} <- moved.Point.x;
        s.ys.{k} <- moved.Point.y;
        Update (old, moved)
      end
      else begin
        (* Renormalize the non-update mass; an empty tree turns a
           delete (or update) draw into an insert so the stream never
           stalls, and the renormalized draw stays deterministic. *)
        let v =
          if spec.update_fraction >= 1.0 then 0.0
          else (u -. spec.update_fraction) /. (1.0 -. spec.update_fraction)
        in
        if v < spec.insert_fraction || s.n = 0 then begin
          let p = Sampler.point s.rng spec.base.model in
          push s p;
          Insert p
        end
        else begin
          let k = Xoshiro.int s.rng s.n in
          let old = point s k in
          s.xs.{k} <- s.xs.{s.n - 1};
          s.ys.{k} <- s.ys.{s.n - 1};
          s.n <- s.n - 1;
          Delete old
        end
      end
    in
    s.ops_done <- s.ops_done + 1;
    event

  let map_trials ?jobs spec ~f =
    let rngs = trial_rng_array spec.base in
    Parallel.map_list ?jobs spec.base.trials ~f:(fun i -> f i rngs.(i))
end
