(* One slot per possible domain id. OCaml 5 recycles ids of terminated
   domains and caps live domains well below this, so masking keeps every
   index in range without a bounds check in the writer. *)
let max_shards = 128

let shard_index () = (Domain.self () :> int) land (max_shards - 1)

let enabled_flag = Atomic.make false
let set_enabled b = Atomic.set enabled_flag b
let enabled () = Atomic.get enabled_flag

type counter = {
  c_name : string;
  c_stable : bool;
  c_always : bool;
  c_shards : int array;  (* only shard owners write; read after joins *)
}

type gauge = {
  g_name : string;
  g_stable : bool;
  g_cell : float Atomic.t;
}

type histogram = {
  h_name : string;
  h_stable : bool;
  h_bounds : float array;
  h_cells : int array array;  (* [max_shards][bounds + 1] *)
  h_sums : float array;  (* per-shard observation sums *)
}

(* Per-domain sketch shards are allocated lazily on the owner's first
   record — a sketch body is ~17 KB, and eagerly paying 128 of those
   per instrument would dwarf every other registry allocation. Merged
   reads follow the counter contract: exact after the writers join. *)
type sketch = {
  s_name : string;
  s_stable : bool;
  s_alpha : float;
  s_min_value : float;
  s_max_value : float;
  s_shards : Sketch.t option array;
}

type instrument = C of counter | G of gauge | H of histogram | S of sketch

let registry : (string, instrument) Hashtbl.t = Hashtbl.create 64
let registry_mutex = Mutex.create ()

let register name make check =
  Mutex.lock registry_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock registry_mutex)
    (fun () ->
      match Hashtbl.find_opt registry name with
      | Some existing -> check existing
      | None ->
        let i = make () in
        Hashtbl.replace registry name i;
        i)

let clash name what =
  invalid_arg
    (Printf.sprintf "Metrics: %S is already registered as a %s" name what)

let describe = function
  | C _ -> "counter"
  | G _ -> "gauge"
  | H _ -> "histogram"
  | S _ -> "sketch"

let counter ?(stable = true) ?(always = false) name =
  let i =
    register name
      (fun () ->
        C
          {
            c_name = name;
            c_stable = stable;
            c_always = always;
            c_shards = Array.make max_shards 0;
          })
      (function C _ as i -> i | other -> clash name (describe other))
  in
  match i with C c -> c | _ -> assert false

let gauge ?(stable = true) name =
  let i =
    register name
      (fun () ->
        G { g_name = name; g_stable = stable; g_cell = Atomic.make 0.0 })
      (function G _ as i -> i | other -> clash name (describe other))
  in
  match i with G g -> g | _ -> assert false

let histogram ?(stable = true) name ~bounds =
  if Array.length bounds = 0 then
    invalid_arg "Metrics.histogram: empty bounds";
  Array.iteri
    (fun i b ->
      if i > 0 && not (b > bounds.(i - 1)) then
        invalid_arg "Metrics.histogram: bounds must be strictly increasing")
    bounds;
  let i =
    register name
      (fun () ->
        H
          {
            h_name = name;
            h_stable = stable;
            h_bounds = Array.copy bounds;
            h_cells =
              Array.init max_shards (fun _ ->
                  Array.make (Array.length bounds + 1) 0);
            h_sums = Array.make max_shards 0.0;
          })
      (function
        | H h as i ->
          if h.h_bounds <> bounds then
            invalid_arg
              (Printf.sprintf
                 "Metrics: histogram %S re-registered with different bounds"
                 name)
          else i
        | other -> clash name (describe other))
  in
  match i with H h -> h | _ -> assert false

let sketch ?(stable = true) ?(alpha = 0.01) ?(min_value = 1e-9)
    ?(max_value = 1e9) name =
  (* Validate eagerly so a bad registration fails at the declaration
     site, not on the first shard's lazy creation. *)
  ignore (Sketch.create ~alpha ~min_value ~max_value () : Sketch.t);
  let i =
    register name
      (fun () ->
        S
          {
            s_name = name;
            s_stable = stable;
            s_alpha = alpha;
            s_min_value = min_value;
            s_max_value = max_value;
            s_shards = Array.make max_shards None;
          })
      (function
        | S s as i ->
          if
            s.s_alpha <> alpha || s.s_min_value <> min_value
            || s.s_max_value <> max_value
          then
            invalid_arg
              (Printf.sprintf
                 "Metrics: sketch %S re-registered with different parameters"
                 name)
          else i
        | other -> clash name (describe other))
  in
  match i with S s -> s | _ -> assert false

(* [log_bounds] builds the log-spaced bucket edges the latency
   histograms use: [per_decade] geometrically spaced bounds per power
   of ten from [lo] to [hi] inclusive, so no realistic observation
   saturates into the overflow bucket and every bucket carries the same
   relative width. *)
let log_bounds ~per_decade ~lo ~hi =
  if per_decade < 1 then invalid_arg "Metrics.log_bounds: per_decade < 1";
  if not (lo > 0.0 && hi > lo) then
    invalid_arg "Metrics.log_bounds: need 0 < lo < hi";
  let decades = Float.log10 (hi /. lo) in
  let n = int_of_float (Float.round (decades *. float_of_int per_decade)) in
  let n = max 1 n in
  Array.init (n + 1) (fun i ->
      lo *. Float.pow 10.0 (float_of_int i /. float_of_int per_decade))

(* Updates *)

let add c n =
  if c.c_always || Atomic.get enabled_flag then begin
    let s = shard_index () in
    c.c_shards.(s) <- c.c_shards.(s) + n
  end

let incr c = add c 1

let set_gauge g v = if Atomic.get enabled_flag then Atomic.set g.g_cell v

let observe h v =
  if Atomic.get enabled_flag then begin
    let bounds = h.h_bounds in
    let n = Array.length bounds in
    let bucket = ref n in
    (* Linear scan: bucket counts are small (<= 16) and the common case
       exits early; a branchy binary search buys nothing here. *)
    (try
       for i = 0 to n - 1 do
         if v <= bounds.(i) then begin
           bucket := i;
           raise Exit
         end
       done
     with Exit -> ());
    let s = shard_index () in
    let cells = h.h_cells.(s) in
    cells.(!bucket) <- cells.(!bucket) + 1;
    h.h_sums.(s) <- h.h_sums.(s) +. v
  end

(* Only the owning domain writes slot [i]; a recycled domain id adopts
   its predecessor's shard, as counters do. *)
let sketch_shard s i =
  match s.s_shards.(i) with
  | Some sk -> sk
  | None ->
    let sk =
      Sketch.create ~alpha:s.s_alpha ~min_value:s.s_min_value
        ~max_value:s.s_max_value ()
    in
    s.s_shards.(i) <- Some sk;
    sk

let record_sketch s v =
  if Atomic.get enabled_flag then Sketch.record (sketch_shard s (shard_index ())) v

(* The serve per-query triple — admission counter, nanosecond latency,
   visited count; the integers cross the boundary unboxed — resolved
   behind one enabled check and one shard lookup. At ~150ns of total
   telemetry per query, every duplicated atomic read and domain-id
   fetch was worth folding away. *)
let record_query c s ~ns s' ~n =
  if Atomic.get enabled_flag then begin
    let i = shard_index () in
    c.c_shards.(i) <- c.c_shards.(i) + 1;
    Sketch.record_ns (sketch_shard s i) ns;
    Sketch.record_int (sketch_shard s' i) n
  end
  else if c.c_always then incr c

(* Merged reads *)

let counter_value c = Array.fold_left ( + ) 0 c.c_shards

let counter_shards c =
  let acc = ref [] in
  for s = max_shards - 1 downto 0 do
    if c.c_shards.(s) <> 0 then acc := (s, c.c_shards.(s)) :: !acc
  done;
  !acc

let gauge_value g = Atomic.get g.g_cell

let histogram_counts h =
  let merged = Array.make (Array.length h.h_bounds + 1) 0 in
  Array.iter
    (fun cells -> Array.iteri (fun i n -> merged.(i) <- merged.(i) + n) cells)
    h.h_cells;
  merged

let histogram_count h = Array.fold_left ( + ) 0 (histogram_counts h)

(* Shard order, not observation order: deterministic for a fixed set of
   per-shard partial sums but not across schedules — excluded from the
   stable export for exactly that reason. *)
let histogram_sum h = Array.fold_left ( +. ) 0.0 h.h_sums

let histogram_bounds h = Array.copy h.h_bounds

(* Shard merge order is ascending domain id, but sketch merging adds
   integer bucket counts — commutative — so the merged sketch depends
   only on the recorded multiset, never on which domain recorded what.
   That is the whole stable-export argument for sketches. *)
let sketch_merged s =
  let into =
    Sketch.create ~alpha:s.s_alpha ~min_value:s.s_min_value
      ~max_value:s.s_max_value ()
  in
  Array.iter
    (function Some sk -> Sketch.merge_into ~into sk | None -> ())
    s.s_shards;
  into

let sketch_count s = Sketch.count (sketch_merged s)
let sketch_quantile s q = Sketch.quantile (sketch_merged s) q

let reset () =
  Mutex.lock registry_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock registry_mutex)
    (fun () ->
      Hashtbl.iter
        (fun _ i ->
          match i with
          | C c -> Array.fill c.c_shards 0 max_shards 0
          | G g -> Atomic.set g.g_cell 0.0
          | H h ->
            Array.iter
              (fun cells -> Array.fill cells 0 (Array.length cells) 0)
              h.h_cells;
            Array.fill h.h_sums 0 max_shards 0.0
          | S s -> Array.iter (Option.iter Sketch.reset) s.s_shards)
        registry)

(* Export *)

let sorted_instruments () =
  Mutex.lock registry_mutex;
  let all =
    Fun.protect
      ~finally:(fun () -> Mutex.unlock registry_mutex)
      (fun () -> Hashtbl.fold (fun name i acc -> (name, i) :: acc) registry [])
  in
  List.sort (fun (a, _) (b, _) -> String.compare a b) all

let schema_marker = "popan-metrics-2"
let schema_marker_v1 = "popan-metrics-1"

let sketch_snapshots ?(stable_only = false) ?(prefix = "") () =
  List.filter_map
    (function
      | name, S s
        when ((not stable_only) || s.s_stable)
             && String.starts_with ~prefix name ->
        Some (name, Sketch.snapshot (sketch_merged s))
      | _ -> None)
    (sorted_instruments ())

let sketch_to_json ~stable_only (snap : Sketch.snapshot) merged =
  let buckets =
    Obs_json.List
      (Array.to_list
         (Array.map
            (fun (i, n) -> Obs_json.List [ Obs_json.Int i; Obs_json.Int n ])
            snap.Sketch.buckets))
  in
  let fields =
    [
      ("alpha", Obs_json.Float snap.Sketch.alpha);
      ("zeros", Obs_json.Int snap.Sketch.zeros);
      ("total", Obs_json.Int (Sketch.count merged));
      ("buckets", buckets);
    ]
  in
  (* Quantile estimates are pure functions of the integer buckets, so
     they would be stable too; they stay out of the stable export as
     derived data, the same policy as histogram float sums. *)
  if stable_only then Obs_json.Obj fields
  else
    Obs_json.Obj
      (fields
      @ [
          ("sum", Obs_json.Float snap.Sketch.sum);
          ( "quantiles",
            Obs_json.Obj
              (List.filter_map
                 (fun (label, q) ->
                   Option.map
                     (fun v -> (label, Obs_json.Float v))
                     (Sketch.quantile merged q))
                 [ ("p50", 0.5); ("p90", 0.9); ("p99", 0.99); ("p999", 0.999) ])
          );
        ])

let to_json ?(stable_only = false) () =
  let all = sorted_instruments () in
  let field (name, v) = (name, v) in
  let counters =
    List.filter_map
      (function
        | name, C c when (not stable_only) || c.c_stable ->
          Some (field (name, Obs_json.Int (counter_value c)))
        | _ -> None)
      all
  in
  let gauges =
    if stable_only then []
    else
      List.filter_map
        (function
          | name, G g -> Some (field (name, Obs_json.Float (gauge_value g)))
          | _ -> None)
        all
  in
  let histograms =
    List.filter_map
      (function
        | name, H h when (not stable_only) || h.h_stable ->
          let counts = histogram_counts h in
          let fields =
            [
              ( "bounds",
                Obs_json.List
                  (Array.to_list
                     (Array.map (fun b -> Obs_json.Float b) h.h_bounds)) );
              ( "counts",
                Obs_json.List
                  (Array.to_list (Array.map (fun n -> Obs_json.Int n) counts))
              );
              ("count", Obs_json.Int (Array.fold_left ( + ) 0 counts));
            ]
            @
            if stable_only then []
            else [ ("sum", Obs_json.Float (histogram_sum h)) ]
          in
          Some (field (name, Obs_json.Obj fields))
        | _ -> None)
      all
  in
  let sketches =
    List.filter_map
      (function
        | name, S s when (not stable_only) || s.s_stable ->
          let merged = sketch_merged s in
          Some
            (field (name, sketch_to_json ~stable_only (Sketch.snapshot merged) merged))
        | _ -> None)
      all
  in
  Obs_json.to_string
    (Obs_json.Obj
       [
         ("schema", Obs_json.Str schema_marker);
         ("counters", Obs_json.Obj counters);
         ("gauges", Obs_json.Obj gauges);
         ("histograms", Obs_json.Obj histograms);
         ("sketches", Obs_json.Obj sketches);
       ])

let report () =
  let buffer = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buffer) fmt in
  add "metrics:\n";
  let any = ref false in
  List.iter
    (fun (name, i) ->
      match i with
      | C c ->
        let v = counter_value c in
        if v <> 0 then begin
          any := true;
          add "  %-28s %d\n" name v
        end
      | G g ->
        let v = gauge_value g in
        if v <> 0.0 then begin
          any := true;
          add "  %-28s %g\n" name v
        end
      | H h ->
        let n = histogram_count h in
        if n <> 0 then begin
          any := true;
          let sum = histogram_sum h in
          add "  %-28s count %d  mean %g\n" name n (sum /. float_of_int n);
          let counts = histogram_counts h in
          Array.iteri
            (fun b c ->
              if c <> 0 then
                if b < Array.length h.h_bounds then
                  add "  %-28s   <= %-12g %d\n" "" h.h_bounds.(b) c
                else add "  %-28s   >  %-12g %d\n" ""
                    h.h_bounds.(Array.length h.h_bounds - 1) c)
            counts
        end
      | S s ->
        let merged = sketch_merged s in
        let n = Sketch.count merged in
        if n <> 0 then begin
          any := true;
          let q p =
            match Sketch.quantile merged p with Some v -> v | None -> 0.0
          in
          add "  %-28s count %d  p50 %g  p90 %g  p99 %g\n" name n (q 0.5)
            (q 0.9) (q 0.99)
        end)
    (sorted_instruments ());
  if not !any then add "  (all instruments zero)\n";
  Buffer.contents buffer

let validate_json j =
  let ( let* ) r f = Result.bind r f in
  let require what = function Some v -> Ok v | None -> Error what in
  (* v1 documents (no sketches section) stay valid: the schema grew a
     key, it did not change the meaning of any existing one. *)
  let* has_sketches =
    match Obs_json.member "schema" j with
    | Some (Obs_json.Str s) when s = schema_marker -> Ok true
    | Some (Obs_json.Str s) when s = schema_marker_v1 -> Ok false
    | Some (Obs_json.Str s) ->
      Error (Printf.sprintf "schema %S, expected %S" s schema_marker)
    | _ -> Error "missing \"schema\" string"
  in
  let obj_field name =
    match Obs_json.member name j with
    | Some (Obs_json.Obj fields) -> Ok fields
    | _ -> Error (Printf.sprintf "missing %S object" name)
  in
  let* counters = obj_field "counters" in
  let* gauges = obj_field "gauges" in
  let* histograms = obj_field "histograms" in
  let* sketches = if has_sketches then obj_field "sketches" else Ok [] in
  let* () =
    List.fold_left
      (fun acc (name, v) ->
        let* () = acc in
        match Obs_json.int_opt v with
        | Some _ -> Ok ()
        | None -> Error (Printf.sprintf "counter %S is not an integer" name))
      (Ok ()) counters
  in
  let* () =
    List.fold_left
      (fun acc (name, v) ->
        let* () = acc in
        match Obs_json.number_opt v with
        | Some _ -> Ok ()
        | None -> Error (Printf.sprintf "gauge %S is not a number" name))
      (Ok ()) gauges
  in
  let* () =
    List.fold_left
      (fun acc (name, v) ->
        let* () = acc in
        let bad msg = Error (Printf.sprintf "histogram %S: %s" name msg) in
        let* bounds =
          require
            (Printf.sprintf "histogram %S: missing bounds" name)
            (Option.bind (Obs_json.member "bounds" v) Obs_json.to_list_opt)
        in
        let* counts =
          require
            (Printf.sprintf "histogram %S: missing counts" name)
            (Option.bind (Obs_json.member "counts" v) Obs_json.to_list_opt)
        in
        if List.length counts <> List.length bounds + 1 then
          bad "counts length is not bounds + 1"
        else
          let* cells =
            List.fold_left
              (fun acc c ->
                let* acc = acc in
                match Obs_json.int_opt c with
                | Some n when n >= 0 -> Ok (n :: acc)
                | _ -> bad "negative or non-integer bucket count")
              (Ok []) counts
          in
          match Option.bind (Obs_json.member "count" v) Obs_json.int_opt with
          | Some total when total = List.fold_left ( + ) 0 cells -> Ok ()
          | Some _ -> bad "count does not equal the bucket sum"
          | None -> bad "missing integer count")
      (Ok ()) histograms
  in
  let* () =
    List.fold_left
      (fun acc (name, v) ->
        let* () = acc in
        let bad msg = Error (Printf.sprintf "sketch %S: %s" name msg) in
        let* () =
          match Option.bind (Obs_json.member "alpha" v) Obs_json.number_opt with
          | Some a when a > 0.0 && a < 1.0 -> Ok ()
          | _ -> bad "alpha not in (0, 1)"
        in
        let* zeros =
          match Option.bind (Obs_json.member "zeros" v) Obs_json.int_opt with
          | Some z when z >= 0 -> Ok z
          | _ -> bad "negative or missing zeros"
        in
        let* buckets =
          require
            (Printf.sprintf "sketch %S: missing buckets" name)
            (Option.bind (Obs_json.member "buckets" v) Obs_json.to_list_opt)
        in
        let* bucket_sum =
          List.fold_left
            (fun acc b ->
              let* (prev, sum) = acc in
              match Obs_json.to_list_opt b with
              | Some [ i; n ] -> (
                match (Obs_json.int_opt i, Obs_json.int_opt n) with
                | Some i, Some n when n > 0 -> (
                  match prev with
                  | Some p when i <= p -> bad "bucket indices not ascending"
                  | _ -> Ok (Some i, sum + n))
                | _ -> bad "bucket is not [int index, positive int count]")
              | _ -> bad "bucket is not a two-element list")
            (Ok (None, 0))
            buckets
          |> Result.map snd
        in
        match Option.bind (Obs_json.member "total" v) Obs_json.int_opt with
        | Some total when total = zeros + bucket_sum -> Ok ()
        | Some _ -> bad "total does not equal zeros plus the bucket sum"
        | None -> bad "missing integer total")
      (Ok ()) sketches
  in
  Ok
    (List.length counters + List.length gauges + List.length histograms
   + List.length sketches)

(* --- Prometheus text exposition ------------------------------------

   The scrape surface: every instrument rendered in the Prometheus
   text format (version 0.0.4), names mangled onto the [popan_] prefix
   with dots as underscores. Counters and gauges map directly;
   histograms become cumulative [_bucket{le=...}] series; sketches
   become summaries (quantile series plus [_sum]/[_count]) — the
   natural Prometheus citizen for a quantile sketch. Deterministic for
   a deterministic registry: instruments in name order, floats via
   {!Obs_json.float_repr}. *)

let prometheus_name name =
  let buffer = Buffer.create (String.length name + 8) in
  Buffer.add_string buffer "popan_";
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' ->
        Buffer.add_char buffer c
      | _ -> Buffer.add_char buffer '_')
    name;
  Buffer.contents buffer

let to_prometheus () =
  let buffer = Buffer.create 2048 in
  let add fmt = Printf.ksprintf (Buffer.add_string buffer) fmt in
  let num = Obs_json.float_repr in
  List.iter
    (fun (name, i) ->
      let p = prometheus_name name in
      match i with
      | C c ->
        add "# TYPE %s counter\n" p;
        add "%s %d\n" p (counter_value c)
      | G g ->
        add "# TYPE %s gauge\n" p;
        add "%s %s\n" p (num (gauge_value g))
      | H h ->
        add "# TYPE %s histogram\n" p;
        let counts = histogram_counts h in
        let cum = ref 0 in
        Array.iteri
          (fun b n ->
            cum := !cum + n;
            if b < Array.length h.h_bounds then
              add "%s_bucket{le=\"%s\"} %d\n" p (num h.h_bounds.(b)) !cum
            else add "%s_bucket{le=\"+Inf\"} %d\n" p !cum)
          counts;
        add "%s_sum %s\n" p (num (histogram_sum h));
        add "%s_count %d\n" p !cum
      | S s ->
        add "# TYPE %s summary\n" p;
        let merged = sketch_merged s in
        let n = Sketch.count merged in
        List.iter
          (fun q ->
            match Sketch.quantile merged q with
            | Some v -> add "%s{quantile=\"%s\"} %s\n" p (num q) (num v)
            | None -> ())
          [ 0.5; 0.9; 0.99; 0.999 ];
        add "%s_sum %s\n" p (num (Sketch.sum merged));
        add "%s_count %d\n" p n)
    (sorted_instruments ());
  Buffer.contents buffer

(* The line-grammar checker for what [to_prometheus] (or any compliant
   exporter) emits. Strict where the format is strict: metric and label
   name alphabets, label value escapes, parseable sample values, every
   sample preceded by its family's TYPE declaration, cumulative
   non-decreasing histogram buckets ending at le="+Inf" and agreeing
   with _count. *)

let validate_prometheus text =
  let ( let* ) r f = Result.bind r f in
  let fail line fmt =
    Printf.ksprintf (fun m -> Error (Printf.sprintf "line %d: %s" line m)) fmt
  in
  let name_start c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = ':'
  in
  let name_char c = name_start c || (c >= '0' && c <= '9') in
  let label_start c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
  in
  let label_char c = label_start c || (c >= '0' && c <= '9') in
  let valid_name s =
    String.length s > 0
    && name_start s.[0]
    && String.for_all name_char s
  in
  let parse_value s =
    match String.lowercase_ascii s with
    | "+inf" | "inf" -> Some infinity
    | "-inf" -> Some neg_infinity
    | "nan" -> Some Float.nan
    | _ -> float_of_string_opt s
  in
  (* One sample line: name[{labels}] value. Returns (name, labels). *)
  let parse_sample lineno s =
    let n = String.length s in
    let i = ref 0 in
    while !i < n && name_char s.[!i] do i := !i + 1 done;
    if !i = 0 || not (name_start s.[0]) then fail lineno "bad metric name"
    else begin
      let name = String.sub s 0 !i in
      let* labels =
        if !i < n && s.[!i] = '{' then begin
          i := !i + 1;
          let labels = ref [] in
          let rec loop () =
            if !i >= n then fail lineno "unterminated label set"
            else if s.[!i] = '}' then begin
              i := !i + 1;
              Ok (List.rev !labels)
            end
            else begin
              let start = !i in
              while !i < n && label_char s.[!i] do i := !i + 1 done;
              if !i = start || not (label_start s.[start]) then
                fail lineno "bad label name"
              else begin
                let lname = String.sub s start (!i - start) in
                if !i >= n || s.[!i] <> '=' then fail lineno "expected '='"
                else begin
                  i := !i + 1;
                  if !i >= n || s.[!i] <> '"' then
                    fail lineno "expected opening quote"
                  else begin
                    i := !i + 1;
                    let value = Buffer.create 16 in
                    let rec scan () =
                      if !i >= n then fail lineno "unterminated label value"
                      else
                        match s.[!i] with
                        | '"' ->
                          i := !i + 1;
                          Ok ()
                        | '\\' ->
                          if !i + 1 >= n then
                            fail lineno "dangling escape in label value"
                          else begin
                            (match s.[!i + 1] with
                            | '\\' -> Buffer.add_char value '\\'
                            | '"' -> Buffer.add_char value '"'
                            | 'n' -> Buffer.add_char value '\n'
                            | c ->
                              Buffer.add_char value '\\';
                              Buffer.add_char value c);
                            i := !i + 2;
                            scan ()
                          end
                        | c ->
                          Buffer.add_char value c;
                          i := !i + 1;
                          scan ()
                    in
                    let* () = scan () in
                    labels := (lname, Buffer.contents value) :: !labels;
                    if !i < n && s.[!i] = ',' then begin
                      i := !i + 1;
                      loop ()
                    end
                    else if !i < n && s.[!i] = '}' then loop ()
                    else fail lineno "expected ',' or '}' after a label"
                  end
                end
              end
            end
          in
          loop ()
        end
        else Ok []
      in
      if !i >= n || s.[!i] <> ' ' then
        fail lineno "expected a space before the value"
      else begin
        let rest = String.sub s (!i + 1) (n - !i - 1) in
        (* An optional timestamp may follow the value. *)
        let value_text =
          match String.index_opt rest ' ' with
          | None -> rest
          | Some j ->
            let ts = String.sub rest (j + 1) (String.length rest - j - 1) in
            if ts = "" || not (String.for_all (fun c -> (c >= '0' && c <= '9') || c = '-') ts)
            then ""  (* force the value check below to fail loudly *)
            else String.sub rest 0 j
        in
        match parse_value value_text with
        | Some v -> Ok (name, labels, v)
        | None -> fail lineno "unparseable sample value %S" rest
      end
    end
  in
  let types : (string, string) Hashtbl.t = Hashtbl.create 32 in
  let hist_buckets : (string, (float * float) list ref) Hashtbl.t =
    Hashtbl.create 8
  in
  let hist_counts : (string, float) Hashtbl.t = Hashtbl.create 8 in
  let family name =
    (* Map a sample name back to its declared family. *)
    let strip suffix =
      if String.length name > String.length suffix
         && String.ends_with ~suffix name
      then Some (String.sub name 0 (String.length name - String.length suffix))
      else None
    in
    if Hashtbl.mem types name then Some name
    else
      List.find_map
        (fun suffix ->
          match strip suffix with
          | Some base when Hashtbl.mem types base -> Some base
          | _ -> None)
        [ "_bucket"; "_sum"; "_count" ]
  in
  let lines = String.split_on_char '\n' text in
  let* samples =
    List.fold_left
      (fun acc (lineno, line) ->
        let* samples = acc in
        if line = "" then Ok samples
        else if String.length line > 0 && line.[0] = '#' then begin
          match String.split_on_char ' ' line with
          | "#" :: "TYPE" :: name :: [ ty ] ->
            if not (valid_name name) then
              fail lineno "bad metric name %S in TYPE" name
            else if
              not
                (List.mem ty
                   [ "counter"; "gauge"; "histogram"; "summary"; "untyped" ])
            then fail lineno "unknown type %S" ty
            else if Hashtbl.mem types name then
              fail lineno "duplicate TYPE for %S" name
            else begin
              Hashtbl.replace types name ty;
              Ok samples
            end
          | "#" :: "HELP" :: name :: _ ->
            if valid_name name then Ok samples
            else fail lineno "bad metric name %S in HELP" name
          | _ -> Ok samples (* a plain comment *)
        end
        else begin
          let* name, labels, v = parse_sample lineno line in
          let* base =
            match family name with
            | Some base -> Ok base
            | None -> fail lineno "sample %S precedes its TYPE declaration" name
          in
          let ty = Hashtbl.find types base in
          let* () =
            match ty with
            | "histogram" when String.ends_with ~suffix:"_bucket" name -> (
              match List.assoc_opt "le" labels with
              | None -> fail lineno "histogram bucket without an le label"
              | Some le -> (
                match parse_value le with
                | None -> fail lineno "unparseable le bound %S" le
                | Some bound ->
                  let cell =
                    match Hashtbl.find_opt hist_buckets base with
                    | Some r -> r
                    | None ->
                      let r = ref [] in
                      Hashtbl.replace hist_buckets base r;
                      r
                  in
                  cell := (bound, v) :: !cell;
                  Ok ()))
            | "histogram" when name = base ^ "_count" ->
              Hashtbl.replace hist_counts base v;
              Ok ()
            | "histogram" | "summary" | "counter" | "gauge" | "untyped" ->
              Ok ()
            | _ -> assert false
          in
          Ok (samples + 1)
        end)
      (Ok 0)
      (List.mapi (fun i l -> (i + 1, l)) lines)
  in
  let* () =
    Hashtbl.fold
      (fun base cell acc ->
        let* () = acc in
        let buckets = List.rev !cell in
        let* () =
          if buckets = [] then Ok ()
          else if fst (List.nth buckets (List.length buckets - 1)) <> infinity
          then Error (Printf.sprintf "histogram %S: no le=\"+Inf\" bucket" base)
          else Ok ()
        in
        let* _ =
          List.fold_left
            (fun acc (bound, v) ->
              let* prev = acc in
              match prev with
              | Some (pb, _) when bound <= pb ->
                Error
                  (Printf.sprintf "histogram %S: le bounds not increasing" base)
              | Some (_, pv) when v < pv ->
                Error
                  (Printf.sprintf "histogram %S: bucket counts not cumulative"
                     base)
              | _ -> Ok (Some (bound, v)))
            (Ok None) buckets
        in
        match (Hashtbl.find_opt hist_counts base, buckets) with
        | Some count, _ :: _ ->
          let _, last = List.nth buckets (List.length buckets - 1) in
          if count <> last then
            Error
              (Printf.sprintf
                 "histogram %S: _count disagrees with the +Inf bucket" base)
          else Ok ()
        | _ -> Ok ())
      hist_buckets (Ok ())
  in
  Ok samples
