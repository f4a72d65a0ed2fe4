open Import

type point_model =
  | Uniform
  | Gaussian of { sigma : float }
  | Clusters of { centers : Point.t list; sigma : float }

let paper_gaussian = Gaussian { sigma = 0.25 }

let id = function
  | Uniform -> "uniform"
  | Gaussian { sigma } -> Printf.sprintf "gaussian(%h)" sigma
  | Clusters { centers; sigma } ->
    Printf.sprintf "clusters(%h;%s)" sigma
      (String.concat ";"
         (List.map
            (fun (p : Point.t) -> Printf.sprintf "%h,%h" p.Point.x p.Point.y)
            centers))

let truncated_coordinate rng ~mean ~sigma =
  Dist.truncated_gaussian rng ~mean ~sigma ~lo:0.0 ~hi:1.0

let point rng model =
  match model with
  | Uniform -> Point.make (Xoshiro.float rng) (Xoshiro.float rng)
  | Gaussian { sigma } ->
    if sigma <= 0.0 then invalid_arg "Sampler.point: sigma <= 0";
    Point.make
      (truncated_coordinate rng ~mean:0.5 ~sigma)
      (truncated_coordinate rng ~mean:0.5 ~sigma)
  | Clusters { centers; sigma } ->
    if sigma <= 0.0 then invalid_arg "Sampler.point: sigma <= 0";
    if centers = [] then invalid_arg "Sampler.point: no cluster centers";
    List.iter
      (fun c ->
        if not (Point.in_unit_square c) then
          invalid_arg "Sampler.point: cluster center outside unit square")
      centers;
    let k = Xoshiro.int rng (List.length centers) in
    let c = List.nth centers k in
    Point.make
      (truncated_coordinate rng ~mean:c.Point.x ~sigma)
      (truncated_coordinate rng ~mean:c.Point.y ~sigma)

let points rng model n =
  if n < 0 then invalid_arg "Sampler.points: n < 0";
  List.init n (fun _ -> point rng model)

let fill rng model (xs : Xoshiro.floats) (ys : Xoshiro.floats) n =
  if n < 0 then invalid_arg "Sampler.fill: n < 0";
  if n > Bigarray.Array1.dim xs || n > Bigarray.Array1.dim ys then
    invalid_arg "Sampler.fill: column shorter than n";
  match model with
  | Uniform ->
    (* [point] evaluates [Point.make]'s arguments right to left: the
       first draw of each pair is y. *)
    Xoshiro.fill_pairs rng ys xs n
  | Gaussian _ | Clusters _ ->
    for i = 0 to n - 1 do
      let p = point rng model in
      xs.{i} <- p.Point.x;
      ys.{i} <- p.Point.y
    done

let point_nd rng ~dim =
  if dim <= 0 then invalid_arg "Sampler.point_nd: dim <= 0";
  Array.init dim (fun _ -> Xoshiro.float rng)

let points_nd rng ~dim n =
  if n < 0 then invalid_arg "Sampler.points_nd: n < 0";
  List.init n (fun _ -> point_nd rng ~dim)

type segment_model =
  | Uniform_segments of { mean_length : float }
  | Edges_of_sites of { sites : int }

(* Clip a raw segment to the unit square; [None] when the clipped part is
   degenerate or misses the square. *)
let clipped_segment p1 p2 =
  match Point.equal p1 p2 with
  | true -> None
  | false -> (
    let s = Segment.make p1 p2 in
    match Segment.clip_to_box s Box.unit with
    | None -> None
    | Some (t0, t1) ->
      if t1 -. t0 < 1e-12 then None
      else
        let a = Segment.point_at s t0 in
        let b = Segment.point_at s t1 in
        if Point.equal a b then None else Some (Segment.make a b))

let rec segment rng model =
  match model with
  | Uniform_segments { mean_length } ->
    if mean_length <= 0.0 then invalid_arg "Sampler.segment: mean_length <= 0";
    let mid = Point.make (Xoshiro.float rng) (Xoshiro.float rng) in
    let angle = Dist.uniform rng ~lo:0.0 ~hi:(2.0 *. Float.pi) in
    let len = Dist.exponential rng ~rate:(1.0 /. mean_length) in
    let half = Point.scale (0.5 *. len) (Point.make (cos angle) (sin angle)) in
    let p1 = Point.sub mid half in
    let p2 = Point.add mid half in
    (match clipped_segment p1 p2 with
     | Some s -> s
     | None -> segment rng model)
  | Edges_of_sites _ ->
    (* A single edge of the site model is a random chord between two
       uniform sites. *)
    let p1 = Point.make (Xoshiro.float rng) (Xoshiro.float rng) in
    let p2 = Point.make (Xoshiro.float rng) (Xoshiro.float rng) in
    (match clipped_segment p1 p2 with
     | Some s -> s
     | None -> segment rng model)

let segments rng model n =
  if n < 0 then invalid_arg "Sampler.segments: n < 0";
  match model with
  | Uniform_segments _ -> List.init n (fun _ -> segment rng model)
  | Edges_of_sites { sites } ->
    if sites < 2 then invalid_arg "Sampler.segments: sites < 2";
    (* Draw a tour over [sites] uniform sites and walk its edges, drawing
       fresh tours until [n] valid segments have been produced. *)
    let rec collect acc remaining =
      if remaining = 0 then List.rev acc
      else begin
        let tour =
          Array.init sites (fun _ ->
              Point.make (Xoshiro.float rng) (Xoshiro.float rng))
        in
        Dist.shuffle rng tour;
        let rec walk acc remaining i =
          if remaining = 0 || i >= sites - 1 then (acc, remaining)
          else
            match clipped_segment tour.(i) tour.(i + 1) with
            | Some s -> walk (s :: acc) (remaining - 1) (i + 1)
            | None -> walk acc remaining (i + 1)
        in
        let acc, remaining = walk acc remaining 0 in
        collect acc remaining
      end
    in
    collect [] n
