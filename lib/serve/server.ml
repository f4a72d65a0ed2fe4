open Import

let kernel_of (q : Wire.query) =
  match q with
  | Wire.Range _ -> `Range
  | Wire.Count _ -> `Count
  | Wire.Knn _ -> `Knn
  | Wire.Nearest _ -> `Nearest
  | Wire.Cell _ -> `Cell

(* One rule for hostile input, decided before the kernels run: a NaN
   or infinite coordinate, in any field of any kind of query, or a box
   whose extent is empty on an axis, answers [Rejected] naming the
   field. The wire hands a query box over as four raw floats, so this
   rule is all that stands between a hostile box and the kernels. None
   for a valid query, without allocating. *)
let rejection (q : Wire.query) =
  let bad v = not (Float.is_finite v) in
  match q with
  | Wire.Range b | Wire.Count b ->
    if bad b.Box.xmin then Some "non-finite query coordinate: box xmin"
    else if bad b.Box.ymin then Some "non-finite query coordinate: box ymin"
    else if bad b.Box.xmax then Some "non-finite query coordinate: box xmax"
    else if bad b.Box.ymax then Some "non-finite query coordinate: box ymax"
    else if b.Box.xmin >= b.Box.xmax then Some "empty query box: xmin >= xmax"
    else if b.Box.ymin >= b.Box.ymax then Some "empty query box: ymin >= ymax"
    else None
  | Wire.Knn (_, p) | Wire.Nearest p | Wire.Cell p ->
    if bad p.Point.x then Some "non-finite query coordinate: point x"
    else if bad p.Point.y then Some "non-finite query coordinate: point y"
    else None

(* One query against one arena: the single dispatch behind both
   [eval] and [eval_instrumented]. Untimed, it is what the pool's tasks
   run with telemetry off and the oracle the tests replay, so "batched
   equals sequential" is equality of schedules, not of two
   implementations. Timed, the same kernels report the nodes they
   visited, a clock brackets the query, and [serve_query_done] — which
   reads the stop clock, bumps the admission counter, and takes only
   immediates — feeds the latency/visited sketches and the flight
   recorder. Count and range call their [_visited] entries only when
   timed, because those also record the subtrees they prune, which
   the untimed path must not; the other kinds' plain entries are their
   [_visited] walks with the tally dropped. *)
let dispatch ~timed arena ~epoch (q : Wire.query) : Wire.answer =
  let t0 = if timed then Clock.now_ns () else 0 in
  let kernel = kernel_of q in
  let answer, visited, note =
    match rejection q with
    | Some m -> (Wire.Rejected m, 0, m)
    | None -> (
      match q with
      | Wire.Range b ->
        let ps, visited =
          if timed then Pr_arena.query_box_visited arena b
          else (Pr_arena.query_box arena b, 0)
        in
        (Wire.Points (Array.of_list ps), visited, "")
      | Wire.Count b ->
        let n, visited =
          if timed then Pr_arena.count_in_box_visited arena b
          else (Pr_arena.count_in_box arena b, 0)
        in
        (Wire.Count_of n, visited, "")
      | Wire.Knn (k, p) -> (
        match Pr_arena.k_nearest_visited arena k p with
        | ps, visited -> (Wire.Points (Array.of_list ps), visited, "")
        | exception Invalid_argument m -> (Wire.Rejected m, 0, m))
      | Wire.Nearest p ->
        let found, visited = Pr_arena.nearest_visited arena p in
        (Wire.Points (match found with None -> [||] | Some q -> [| q |]),
         visited, "")
      | Wire.Cell p -> (
        match Pr_arena.cell_at_visited arena p with
        | (depth, box, pts), visited ->
          (Wire.Cell_info (depth, box, Array.of_list pts), visited, "")
        | exception Invalid_argument m -> (Wire.Rejected m, 0, m)))
  in
  if timed then Probe.serve_query_done ~kernel ~epoch ~t0 ~visited ~note
  else Probe.serve_query ~kernel;
  answer

let eval arena q = dispatch ~timed:false arena ~epoch:0 q
let eval_instrumented arena ~epoch q = dispatch ~timed:true arena ~epoch q

(* Morton scheduling key of one query: the Z-order cell of its anchor —
   a box's low corner, a probe's own point — clamped into the unit
   square. Queries anchored in one cell walk largely the same root-path
   and subtree, so sorting a batch by this key lines consecutive tasks
   up on warm node and column cache lines. The corner is a record
   literal: [Point.make] would box its two floats. *)
let anchor_code (q : Wire.query) =
  match q with
  | Wire.Range b | Wire.Count b ->
    Morton.encode_clamped { Point.x = b.Box.xmin; y = b.Box.ymin }
  | Wire.Knn (_, p) | Wire.Nearest p | Wire.Cell p -> Morton.encode_clamped p

(* The scheduling permutation packs (key, index) into single ints —
   the 42 key bits above [sort_idx_bits] index bits, 62 total — so the
   order of the ints is a total order (indices break key ties) and the
   permutation is deterministic by construction. Batches too large for
   the index field keep arrival order.

   The keys are ordered by an LSD radix sort on the 42 key bits, in six
   7-bit digits. The packed ints are distinct and start in index order,
   and each pass is stable, so equal anchors stay in index order: the
   result is exactly [Array.sort compare]'s. *)
let sort_idx_bits = 20
let sort_idx_mask = (1 lsl sort_idx_bits) - 1
let radix_bits = 7
let radix_passes = 6

let schedule_order queries =
  let n = Array.length queries in
  if n <= 1 || n > sort_idx_mask then None
  else begin
    let keys =
      Array.init n (fun i -> (anchor_code queries.(i) lsl sort_idx_bits) lor i)
    in
    let spare = Array.make n 0 in
    let mask = (1 lsl radix_bits) - 1 in
    let counts = Array.make (mask + 1) 0 in
    for pass = 0 to radix_passes - 1 do
      let shift = sort_idx_bits + (pass * radix_bits) in
      let src, dst = if pass land 1 = 0 then (keys, spare) else (spare, keys) in
      Array.fill counts 0 (mask + 1) 0;
      for i = 0 to n - 1 do
        let d = (Array.unsafe_get src i lsr shift) land mask in
        Array.unsafe_set counts d (Array.unsafe_get counts d + 1)
      done;
      let total = ref 0 in
      for d = 0 to mask do
        let c = counts.(d) in
        counts.(d) <- !total;
        total := !total + c
      done;
      for i = 0 to n - 1 do
        let v = Array.unsafe_get src i in
        let d = (v lsr shift) land mask in
        let at = Array.unsafe_get counts d in
        Array.unsafe_set dst at v;
        Array.unsafe_set counts d (at + 1)
      done
    done;
    (* An even number of passes ends in the array it started from. *)
    Some keys
  end

(* Fan a batch out on the deterministic pool. [map_array]'s contract —
   results in index order, byte-identical at every job count — is what
   makes the whole response deterministic; claiming 256 tasks at a time
   keeps per-task overhead amortized over thousands of tiny queries.
   Telemetry is one flag check per batch: off, the tasks run [eval];
   on, [eval_instrumented] — the same dispatch, timed.

   Tasks run in Morton order of the query anchors and the inverse
   permutation scatters answers back to arrival positions. The response
   bytes are invariant under the reordering: each answer is a pure
   function of (arena, query), the scatter is the exact inverse of the
   sort's permutation, and the sort itself is deterministic — so every
   job count produces the response a sequential [eval] in arrival order
   does, which test_serve and serve_smoke pin down byte for byte. *)
let batch_chunk = 256

let run_batch ?(epoch = 0) pool arena queries =
  let n = Array.length queries in
  let f =
    if Probe.serve_telemetry_on () then fun i ->
      eval_instrumented arena ~epoch queries.(i)
    else fun i -> eval arena queries.(i)
  in
  Probe.serve_batch ~queries:n ~jobs:(Parallel.Pool.jobs pool) (fun () ->
      match schedule_order queries with
      | None -> Parallel.Pool.map_array ~chunk:batch_chunk pool n ~f
      | Some keyed ->
        let sorted =
          Parallel.Pool.map_array ~chunk:batch_chunk pool n ~f:(fun j ->
              f (keyed.(j) land sort_idx_mask))
        in
        let out = Array.make n sorted.(0) in
        for j = 0 to n - 1 do
          out.(keyed.(j) land sort_idx_mask) <- sorted.(j)
        done;
        out)

type config = {
  jobs : int option;  (** pool width; [None] = the session default *)
  capacity : int;  (** leaf capacity of the served tree *)
  base_points : int;  (** initial population *)
  seed : int;  (** master seed: population and churn stream *)
  churn_ops : int;  (** writer ops applied concurrently per batch; 0 = static *)
  insert_fraction : float;
  update_fraction : float;
  drift_sigma : float;
  mmap_dir : string option;  (** back the live arena's columns with mmap *)
}

let default_config =
  {
    jobs = None;
    capacity = 8;
    base_points = 10_000;
    seed = 1987;
    churn_ops = 256;
    insert_fraction = 0.5;
    update_fraction = 1.0 /. 3.0;
    drift_sigma = 0.01;
    mmap_dir = None;
  }

(* The churn writer: one domain for the server's lifetime, parked on a
   condition variable between batches, so a batch pays a signal and a
   wake-up instead of a domain spawn and join. [start] hands it a
   batch's work — apply the next churn slice, publish the next epoch —
   and [wait] blocks until that work is done, returning how it ended. *)
module Writer = struct
  type state =
    | Idle
    | Run
    | Done of (unit, exn * Printexc.raw_backtrace) result
    | Stop

  type t = {
    lock : Mutex.t;
    wake : Condition.t;
    mutable state : state;
    mutable domain : unit Domain.t option;
  }

  let locked w f =
    Mutex.lock w.lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock w.lock) f

  let rec await w ready =
    match w.state with
    | s when ready s -> s
    | _ ->
      Condition.wait w.wake w.lock;
      await w ready

  let set w s =
    w.state <- s;
    Condition.broadcast w.wake

  let spawn work =
    let w =
      {
        lock = Mutex.create ();
        wake = Condition.create ();
        state = Idle;
        domain = None;
      }
    in
    let next_job () = await w (function Run | Stop -> true | _ -> false) in
    let rec loop () =
      match locked w next_job with
      | Stop -> ()
      | _ ->
        let outcome =
          match work () with
          | () -> Ok ()
          | exception e -> Error (e, Printexc.get_raw_backtrace ())
        in
        locked w (fun () ->
            match w.state with Stop -> () | _ -> set w (Done outcome));
        loop ()
    in
    w.domain <- Some (Domain.spawn loop);
    w

  (* After [stop] no domain would ever answer: fail instead of hanging. *)
  let start w =
    locked w (fun () ->
        match w.state with
        | Stop -> invalid_arg "Server.run_queries: server is shut down"
        | _ -> set w Run)

  let wait w =
    locked w (fun () ->
        match await w (function Done _ | Stop -> true | _ -> false) with
        | Done outcome ->
          set w Idle;
          outcome
        | _ -> Ok ())

  (* Idempotent. A slice in flight finishes before the domain exits. *)
  let stop w =
    locked w (fun () -> set w Stop);
    Option.iter Domain.join w.domain;
    w.domain <- None
end

(* The churn writer's state. Each slice turns the spare — the retired
   epoch just before the current one — into the next epoch: it replays
   [slice.(0 .. kept - 1)], the operations that produced the current
   epoch, then draws and applies the next slice and publishes the arena
   itself. Insert, delete and update are deterministic functions of
   (arena state, operation), so the replayed spare holds exactly the
   current epoch's state and nothing is copied. The boot build starts
   as the spare of epoch -1, which the empty slice ([kept] = 0) takes
   to epoch 0's state. [kept] is -1 after a slice that raised: what it
   drew reached no epoch, so nothing can replay it. *)
type churn = {
  spec : Workload.Churn.spec;
  state : Workload.Churn.state;
  slice : Workload.Churn.event array;
  mutable kept : int;
}

let apply arena = function
  | Workload.Churn.Insert p -> Pr_arena.insert arena p
  | Workload.Churn.Delete p -> ignore (Pr_arena.delete arena p : bool)
  | Workload.Churn.Update (p, q) -> ignore (Pr_arena.update arena p q : bool)

(* One slice. Without a spare one epoch behind — every retired epoch
   still pinned, a spare further behind, or a last slice that raised —
   it starts from a full copy of the current epoch. A slice that raises
   publishes nothing and releases its half-churned arena. *)
let churn_slice epochs c =
  let kept = c.kept in
  c.kept <- -1;
  let arena, replay =
    match Epoch.take_spare epochs with
    | Some (id, a) when kept >= 0 && id = Epoch.current_id epochs - 1 ->
      (a, kept)
    | spare ->
      Option.iter (fun (_, a) -> Pr_arena.release a) spare;
      (Epoch.copy_current epochs, 0)
  in
  match
    for i = 0 to replay - 1 do
      apply arena c.slice.(i)
    done;
    Probe.serve_publish_replay ~ops:replay;
    for i = 0 to Array.length c.slice - 1 do
      let op = Workload.Churn.step c.spec c.state in
      c.slice.(i) <- op;
      apply arena op
    done
  with
  | () ->
    c.kept <- Array.length c.slice;
    ignore (Epoch.publish epochs arena : Epoch.epoch)
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    Pr_arena.release arena;
    Printexc.raise_with_backtrace e bt

type t = {
  config : config;
  pool : Parallel.Pool.t;
  owns_pool : bool;
  epochs : Epoch.t;
  writer : Writer.t option;  (** present iff [churn_ops > 0] *)
  mutable in_flight : bool;  (** a slice started and not yet joined *)
  mutable batches : int;
  mutable epoch_batches : int;  (** batches answered from the current epoch *)
}

let create ?pool config =
  if config.base_points < 0 then invalid_arg "Server.create: base_points < 0";
  if config.churn_ops < 0 then invalid_arg "Server.create: churn_ops < 0";
  let spec =
    Workload.Churn.make ~points:(max 1 config.base_points) ~trials:1
      ~seed:config.seed
      ~ops:(max 1 config.churn_ops)
      ~insert_fraction:config.insert_fraction
      ~update_fraction:config.update_fraction ~drift_sigma:config.drift_sigma
      ()
  in
  let rng = List.hd (Workload.Churn.map_trials spec ~f:(fun _ rng -> rng)) in
  (* [Workload.make] needs a positive population, so an empty server
     starts its stream empty rather than from [start]'s one point —
     a point the arena would never hold. *)
  let state =
    if config.base_points = 0 then
      Workload.Churn.restore ~rng ~live:[||] ~ops_done:0
    else Workload.Churn.start spec ~rng
  in
  let static = config.churn_ops = 0 in
  let backing =
    Option.map (fun dir -> Pr_arena.Mmap { dir }) config.mmap_dir
  in
  (* The served arena is built in Z order straight from the churn
     stream's live columns. A churning server reserves headroom for the
     slot high-water mark, which churn pushes above the base population
     from the first slice on: without it the columns double at once.
     Untouched, the headroom costs address space, not memory. *)
  let build =
    let xs, ys = Workload.Churn.live_columns state in
    let headroom = if static then 0 else config.base_points / 8 in
    Pr_arena.bulk_zordered ?backing ~capacity:config.capacity
      ~reserve:(config.base_points + headroom)
      ~n:(Workload.Churn.live_count state) xs ys
  in
  let pool, owns_pool =
    match pool with
    | Some p -> (p, false)
    | None -> (Parallel.Pool.create ?jobs:config.jobs (), true)
  in
  (* No writer ever touches a static server's arena, so it serves as
     epoch 0 itself. A churning server serves a copy as epoch 0 and
     hands the store its build as the spare, which the first slice
     churns into epoch 1; from then on the two arenas alternate. *)
  let epochs = if static then Epoch.create build else Epoch.create_from build in
  let writer =
    if static then None
    else begin
      let c =
        {
          spec;
          state;
          slice =
            Array.make config.churn_ops
              (Workload.Churn.Insert (Point.make 0.0 0.0));
          kept = 0;
        }
      in
      Some (Writer.spawn (fun () -> churn_slice epochs c))
    end
  in
  {
    config;
    pool;
    owns_pool;
    epochs;
    writer;
    in_flight = false;
    batches = 0;
    epoch_batches = 0;
  }

(* Wait for the slice in flight, if any, and surface how it ended: each
   batch's slice publishes the epoch the next request must see, so
   every call that reads or changes server state joins first. With
   telemetry on, the wait goes into [serve.writer.wait] — the part of
   the writer's work that the response, the socket and the client's
   turnaround did not hide. *)
let join t =
  match t.writer with
  | Some w when t.in_flight ->
    t.in_flight <- false;
    let timed = Probe.serve_telemetry_on () in
    let t0 = if timed then Clock.now_ns () else 0 in
    let outcome = Writer.wait w in
    if timed then Probe.serve_writer_wait ~ns:(Clock.now_ns () - t0);
    (match outcome with
    | Ok () -> ()
    | Error (exn, bt) -> Printexc.raise_with_backtrace exn bt)
  | _ -> ()

let epochs t =
  join t;
  t.epochs

let pool t = t.pool
let batches t = t.batches

(* Answer one batch from a pinned epoch while the churn writer turns
   the spare into the next epoch on its own domain. The overlap is
   real — the writer replays into and churns the spare during the
   batch, and keeps going after the answers are returned — but readers
   only ever see the pinned epoch, which shares no column with the
   spare, so answers are torn-free and depend only on the epoch's
   contents; and the churn stream itself is deterministic, so the next
   published epoch is too. Responses are therefore byte-identical at
   every job count. The slice is joined by the next call that needs the
   epoch it publishes: batch [n] serves epoch [n] and leaves epoch
   [n+1] installed for the next request. *)
let run_queries t queries =
  join t;
  let e = Epoch.pin t.epochs in
  Option.iter
    (fun w ->
      Writer.start w;
      t.in_flight <- true)
    t.writer;
  let answers =
    Fun.protect
      ~finally:(fun () ->
        if Option.is_none t.writer then begin
          t.epoch_batches <- t.epoch_batches + 1;
          Probe.serve_epoch_batch ~age:t.epoch_batches
        end;
        Epoch.unpin t.epochs e)
      (fun () ->
        run_batch ~epoch:(Epoch.id e) t.pool (Epoch.arena e) queries)
  in
  t.batches <- t.batches + 1;
  (Epoch.id e, answers)

let mixed_queries rng n =
  Array.init n (fun i ->
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

(* Mixed self-batches seeded from the config, so a freshly started
   server has telemetry to show before — or without — a client driving
   load. *)
let warm t ~batches ~queries:qn =
  let rng = Xoshiro.of_int_seed (t.config.seed lxor 0x77a7) in
  for _ = 1 to batches do
    ignore (run_queries t (mixed_queries rng qn) : int * Wire.answer array)
  done

(* The served population: after a join, the current epoch holds the
   writer's latest slice, and no publish can supersede it meanwhile. *)
let size t = Pr_arena.size (Epoch.arena (Epoch.current t.epochs))

let handle t (req : Wire.request) : Wire.response * bool =
  (match req with Wire.Batch _ -> () | _ -> join t);
  match req with
  | Wire.Batch queries ->
    let epoch, answers = run_queries t queries in
    (Wire.Answers { epoch; answers }, true)
  | Wire.Stats ->
    ( Wire.Stats_info
        {
          epoch = Epoch.current_id t.epochs;
          size = size t;
          batches = t.batches;
          live_epochs = Epoch.live_count t.epochs;
        },
      true )
  | Wire.Telemetry ->
    ( Wire.Telemetry_info
        {
          epoch = Epoch.current_id t.epochs;
          size = size t;
          batches = t.batches;
          live_epochs = Epoch.live_count t.epochs;
          metrics_json = Metrics.to_json ();
          prometheus = Metrics.to_prometheus ();
          sketches =
            Array.of_list (Metrics.sketch_snapshots ~prefix:"serve." ());
          events = Array.of_list (Event.recent ());
          flight = Array.of_list (Flight.recent ());
        },
      true )
  | Wire.Quit -> (Wire.Bye, false)

(* A failed last slice is re-raised once everything is released, so
   no failure of the writer goes unreported. *)
let shutdown t =
  let failure =
    match join t with
    | () -> None
    | exception e -> Some (e, Printexc.get_raw_backtrace ())
  in
  Option.iter Writer.stop t.writer;
  Probe.serve_shutdown ~batches:t.batches ~epoch:(Epoch.current_id t.epochs);
  Epoch.shutdown t.epochs;
  if t.owns_pool then Parallel.Pool.shutdown t.pool;
  (* The at-exit flushes only cover experiment commands; a server must
     leave its admission counters in the store's stats log itself. *)
  Option.iter Store.flush_counters (Store.default ());
  Option.iter (fun (e, bt) -> Printexc.raise_with_backtrace e bt) failure

(* A response too large for one frame is never written: the client
   gets a short [Refused] in its place, and the stream stays in step
   for the next request. *)
let respond oc resp =
  try Wire.write_response oc resp
  with Wire.Frame_too_large n ->
    let reason =
      Printf.sprintf "response of %d bytes exceeds the %d-byte frame limit" n
        Wire.max_frame
    in
    Probe.serve_oversized ~reason;
    Wire.write_response oc (Wire.Refused reason)

(* Drive one client conversation to its end. Returns [true] when the
   client asked the server to quit ([Wire.Quit]), [false] when the
   conversation merely ended — EOF or a malformed frame — and the
   server should keep accepting. *)
let serve_channels t ic oc =
  set_binary_mode_in ic true;
  set_binary_mode_out oc true;
  let rec loop () =
    match Wire.read_request ic with
    | None -> false
    | Some (Error reason) ->
      (* A bad frame leaves the stream position undefined: refuse the
         request and stop reading rather than resynchronize by
         guesswork. *)
      Probe.serve_malformed ~reason;
      respond oc (Wire.Refused reason);
      false
    | Some (Ok req) ->
      let resp, continue = handle t req in
      respond oc resp;
      if continue then loop () else true
  in
  loop ()

(* Accept clients one after another on the same socket until one of
   them sends [Quit]. Conversations are strictly sequential — the next
   accept happens only after the previous client's fd is closed — so
   the epoch/churn cadence any single client observes is the same as it
   was under the one-shot accept, just resumable by a later client. *)
let serve_socket t path =
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ());
  Unix.bind sock (Unix.ADDR_UNIX path);
  Unix.listen sock 1;
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
    (fun () ->
      let rec accept_loop () =
        let fd, _ = Unix.accept sock in
        let ic = Unix.in_channel_of_descr fd in
        let oc = Unix.out_channel_of_descr fd in
        let quit =
          Fun.protect
            ~finally:(fun () ->
              (try flush oc with Sys_error _ -> ());
              try Unix.close fd with Unix.Unix_error _ -> ())
            (fun () -> serve_channels t ic oc)
        in
        if not quit then accept_loop ()
      in
      accept_loop ())

let run ?pool ?socket ?(warm_batches = 0) config =
  let t = create ?pool config in
  Fun.protect
    ~finally:(fun () -> shutdown t)
    (fun () ->
      if warm_batches > 0 then warm t ~batches:warm_batches ~queries:1024;
      match socket with
      | None -> ignore (serve_channels t stdin stdout : bool)
      | Some path -> serve_socket t path)
