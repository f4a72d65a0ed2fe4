(* The observability subsystem, tested in three layers:

   1. Obs_json — the strict parser/printer the validators are built on;
   2. Metrics — registration semantics, enable gating, and the heart of
      the design: per-domain shards merging to schedule-independent
      totals, so the stable JSON export is byte-identical at any job
      count;
   3. Trace — span recording under concurrent domains, with the Chrome
      export validated against its own schema (including per-domain
      interval nesting).

   Metrics and Trace are process-global, so every test runs inside
   [with_obs], which resets both on the way in and out. *)

module Metrics = Popan_obs.Metrics
module Trace = Popan_obs.Trace
module Probe = Popan_obs.Probe
module Obs_json = Popan_obs.Obs_json
module Sketch = Popan_obs.Sketch
module Event = Popan_obs.Event
module Flight = Popan_obs.Flight
module Parallel = Popan_parallel
module Sweep = Popan_experiments.Sweep
module Store = Popan_store.Artifact_store

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let prop ?(count = 25) name gen law =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen law)

let job_counts = [ 1; 2; 4 ]

let all_equal = function
  | [] -> true
  | x :: rest -> List.for_all (fun y -> y = x) rest

let with_obs level f =
  Probe.set_level level;
  Metrics.reset ();
  Trace.clear ();
  Fun.protect
    ~finally:(fun () ->
      Probe.set_level `Off;
      Metrics.reset ();
      Trace.clear ())
    f

let parse_exn s =
  match Obs_json.parse s with
  | Ok v -> v
  | Error msg -> Alcotest.failf "parse %S: %s" s msg

(* Obs_json *)

let json_tests =
  [
    Alcotest.test_case "values round-trip through print and parse" `Quick
      (fun () ->
        let open Obs_json in
        let samples =
          [
            Null;
            Bool true;
            Int (-42);
            Float 0.125;
            Str "a\"b\\c\nd";
            List [ Int 1; List []; Obj [] ];
            Obj [ ("k", Str ""); ("nested", Obj [ ("x", Float 1e-9) ]) ];
          ]
        in
        List.iter
          (fun v ->
            let printed = to_string v in
            check_bool printed true (parse_exn printed = v))
          samples);
    Alcotest.test_case "unicode escapes decode to UTF-8" `Quick (fun () ->
        (match parse_exn {|"é中"|} with
        | Obs_json.Str s -> check_string "basic plane" "\xc3\xa9\xe4\xb8\xad" s
        | _ -> Alcotest.fail "expected a string");
        match parse_exn {|"😀"|} with
        | Obs_json.Str s -> check_string "surrogate pair" "\xf0\x9f\x98\x80" s
        | _ -> Alcotest.fail "expected a string");
    Alcotest.test_case "malformed documents are rejected" `Quick (fun () ->
        List.iter
          (fun s ->
            match Obs_json.parse s with
            | Ok _ -> Alcotest.failf "accepted %S" s
            | Error _ -> ())
          [
            ""; "{"; "[1,]"; "{\"a\":}"; "1 2"; "\"unterminated";
            "\"bad\\q\""; "nul"; "{\"a\" 1}"; "[1} "; "00";
          ]);
    Alcotest.test_case "numbers: int vs float lexing" `Quick (fun () ->
        check_bool "int" true (parse_exn "123" = Obs_json.Int 123);
        check_bool "negative" true (parse_exn "-7" = Obs_json.Int (-7));
        check_bool "fraction" true (parse_exn "1.5" = Obs_json.Float 1.5);
        check_bool "exponent" true (parse_exn "1e3" = Obs_json.Float 1000.0));
    prop ~count:100 "printer output always re-parses" QCheck2.Gen.(
        let rec gen depth =
          if depth = 0 then
            oneof [ map (fun i -> Obs_json.Int i) small_signed_int;
                    map (fun s -> Obs_json.Str s) string_printable ]
          else
            oneof
              [ map (fun i -> Obs_json.Int i) small_signed_int;
                map (fun s -> Obs_json.Str s) string_printable;
                map (fun l -> Obs_json.List l)
                  (list_size (int_bound 4) (gen (depth - 1)));
                map (fun l -> Obs_json.Obj l)
                  (list_size (int_bound 4)
                     (pair string_printable (gen (depth - 1)))) ]
        in
        gen 3)
      (fun v ->
        match Obs_json.parse (Obs_json.to_string v) with
        | Ok _ -> true
        | Error _ -> false);
  ]

(* Metrics *)

let metrics_tests =
  [
    Alcotest.test_case "registration is idempotent, type clashes raise"
      `Quick (fun () ->
        with_obs `Metrics_only (fun () ->
            let c = Metrics.counter "t.idem" in
            let c' = Metrics.counter "t.idem" in
            Metrics.incr c;
            Metrics.incr c';
            check_int "both handles hit one counter" 2
              (Metrics.counter_value c);
            (match Metrics.gauge "t.idem" with
            | exception Invalid_argument _ -> ()
            | _ -> Alcotest.fail "counter re-registered as gauge");
            let _h = Metrics.histogram "t.idem.h" ~bounds:[| 1.0; 2.0 |] in
            match Metrics.histogram "t.idem.h" ~bounds:[| 1.0; 3.0 |] with
            | exception Invalid_argument _ -> ()
            | _ -> Alcotest.fail "histogram re-registered with new bounds"));
    Alcotest.test_case "disabled registry ignores updates, always-counters \
                        still count" `Quick (fun () ->
        with_obs `Off (fun () ->
            let c = Metrics.counter "t.gated" in
            let a = Metrics.counter ~always:true "t.always" in
            Metrics.incr c;
            Metrics.add a 3;
            check_int "gated" 0 (Metrics.counter_value c);
            check_int "always" 3 (Metrics.counter_value a)));
    Alcotest.test_case "histogram buckets: bound is inclusive, overflow is \
                        last" `Quick (fun () ->
        with_obs `Metrics_only (fun () ->
            let h = Metrics.histogram "t.buckets" ~bounds:[| 1.0; 10.0 |] in
            List.iter (Metrics.observe h) [ 0.5; 1.0; 2.0; 10.0; 11.0 ];
            Alcotest.(check (array int))
              "counts" [| 2; 2; 1 |]
              (Metrics.histogram_counts h);
            check_int "total" 5 (Metrics.histogram_count h);
            check_bool "sum" true
              (Float.abs (Metrics.histogram_sum h -. 24.5) < 1e-9)));
    Alcotest.test_case "to_json validates against its own schema" `Quick
      (fun () ->
        with_obs `Metrics_only (fun () ->
            Metrics.incr (Metrics.counter "t.json.c");
            Metrics.set_gauge (Metrics.gauge "t.json.g") 2.5;
            Metrics.observe
              (Metrics.histogram "t.json.h" ~bounds:[| 1.0 |])
              0.5;
            List.iter
              (fun stable_only ->
                match
                  Metrics.validate_json
                    (parse_exn (Metrics.to_json ~stable_only ()))
                with
                | Ok n -> check_bool "instruments > 0" true (n > 0)
                | Error msg -> Alcotest.failf "invalid export: %s" msg)
              [ false; true ]));
    prop ~count:20 "sharded counters merge to the same totals at any job \
                    count"
      QCheck2.Gen.(list_size (int_range 1 60) (int_bound 5))
      (fun weights ->
        let per_jobs jobs =
          with_obs `Metrics_only (fun () ->
              let c = Metrics.counter "t.merge.c" in
              let h = Metrics.histogram "t.merge.h" ~bounds:[| 1.0; 3.0 |] in
              let arr = Array.of_list weights in
              ignore
                (Parallel.map_array ~jobs (Array.length arr) ~f:(fun i ->
                     Metrics.add c arr.(i);
                     Metrics.observe h (float_of_int arr.(i));
                     i));
              ( Metrics.counter_value c,
                Metrics.histogram_counts h,
                Metrics.to_json ~stable_only:true () ))
        in
        all_equal (List.map per_jobs job_counts));
    Alcotest.test_case "stable export excludes gauges, float sums and \
                        unstable instruments" `Quick (fun () ->
        with_obs `Metrics_only (fun () ->
            Metrics.incr (Metrics.counter ~stable:false "t.stab.unstable");
            Metrics.set_gauge (Metrics.gauge "t.stab.gauge") 1.0;
            Metrics.observe
              (Metrics.histogram "t.stab.h" ~bounds:[| 1.0 |])
              0.5;
            let stable = Metrics.to_json ~stable_only:true () in
            let contains needle haystack =
              let n = String.length needle and h = String.length haystack in
              let rec go i =
                i + n <= h
                && (String.sub haystack i n = needle || go (i + 1))
              in
              go 0
            in
            check_bool "no unstable counter" false
              (contains "t.stab.unstable" stable);
            check_bool "no gauges" false (contains "t.stab.gauge" stable);
            check_bool "no sums" false (contains "\"sum\"" stable);
            check_bool "stable histogram present" true
              (contains "t.stab.h" stable)));
  ]

(* The quantile sketch: the relative-error bound proven against an
   exact sorted array, merge determinism, and the wire snapshot. *)

let quantile_grid = [ 0.0; 0.01; 0.1; 0.25; 0.5; 0.75; 0.9; 0.99; 0.999; 1.0 ]

(* The sketch selects the bucket of the observation at rank
   [q * (count - 1)] (first cumulative count exceeding the rank); the
   exact analog over a sorted array is the element at index
   [floor (q * (n - 1))]. Comparing with the same rank rule makes the
   bound sharp: the estimate must sit within [alpha] of that exact
   observation, never "one observation over". *)
let exact_quantile sorted q =
  sorted.(int_of_float (Float.floor (q *. float_of_int (Array.length sorted - 1))))

let sketch_tests =
  [
    prop ~count:200 "every grid quantile is within alpha of the exact \
                     sorted-array quantile"
      QCheck2.Gen.(
        pair
          (oneofl [ 0.01; 0.02; 0.05 ])
          (list_size (int_range 1 300) (float_range (-3.0) 3.0)))
      (fun (alpha, exponents) ->
        let values =
          List.map (fun e -> Float.exp (e *. Float.log 10.0)) exponents
        in
        let s = Sketch.create ~alpha () in
        List.iter (Sketch.record s) values;
        let sorted = Array.of_list (List.sort Float.compare values) in
        List.for_all
          (fun q ->
            let exact = exact_quantile sorted q in
            match Sketch.quantile s q with
            | None -> false
            | Some est ->
              Float.abs (est -. exact) <= (alpha *. exact) +. 1e-9)
          quantile_grid);
    Alcotest.test_case "zeros, clamps and junk land where documented" `Quick
      (fun () ->
        let s = Sketch.create ~min_value:1.0 ~max_value:100.0 () in
        List.iter (Sketch.record s)
          [ 0.0; -5.0; Float.nan; 0.5; 2.0; 1e9; Float.infinity ];
        check_int "all counted" 7 (Sketch.count s);
        (* 4 sub-min observations out of 7: ranks 0..3 report 0. *)
        check_bool "low quantile is the zero bucket" true
          (Sketch.quantile s 0.0 = Some 0.0);
        (match Sketch.quantile s 1.0 with
        | Some v -> check_bool "clamped top stays near max_value" true
            (v > 50.0 && v < 200.0)
        | None -> Alcotest.fail "empty");
        match Sketch.quantile s 1.5 with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "q out of range accepted");
    Alcotest.test_case "merge equals recording the union" `Quick (fun () ->
        let a = Sketch.create () and b = Sketch.create () in
        let union = Sketch.create () in
        for i = 1 to 500 do
          let v = float_of_int i *. 0.37 in
          Sketch.record (if i mod 2 = 0 then a else b) v;
          Sketch.record union v
        done;
        Sketch.merge_into ~into:a b;
        check_int "counts" (Sketch.count union) (Sketch.count a);
        List.iter
          (fun q ->
            check_bool "quantile" true
              (Sketch.quantile a q = Sketch.quantile union q))
          quantile_grid;
        let other = Sketch.create ~alpha:0.05 () in
        match Sketch.merge_into ~into:a other with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "mismatched parameters merged");
    Alcotest.test_case "snapshot round-trips through of_snapshot" `Quick
      (fun () ->
        let s = Sketch.create () in
        for i = 1 to 300 do
          Sketch.record s (Float.exp (float_of_int (i mod 17) -. 8.0))
        done;
        Sketch.record s 0.0;
        let snap = Sketch.snapshot s in
        match Sketch.of_snapshot snap with
        | Error msg -> Alcotest.failf "own snapshot rejected: %s" msg
        | Ok s' ->
          check_int "count" (Sketch.count s) (Sketch.count s');
          List.iter
            (fun q ->
              check_bool "quantile" true
                (Sketch.quantile s q = Sketch.quantile s' q))
            quantile_grid;
          check_bool "snapshot_quantile agrees" true
            (Sketch.snapshot_quantile snap 0.9 = Sketch.quantile s 0.9));
    Alcotest.test_case "of_snapshot rejects tampered snapshots" `Quick
      (fun () ->
        let s = Sketch.create () in
        List.iter (Sketch.record s) [ 0.5; 1.0; 2.0 ];
        let snap = Sketch.snapshot s in
        let reject what (snap : Sketch.snapshot) =
          match Sketch.of_snapshot snap with
          | Ok _ -> Alcotest.failf "accepted %s" what
          | Error _ -> ()
        in
        reject "alpha out of range" { snap with alpha = 1.5 };
        reject "inverted range" { snap with min_value = 10.0; max_value = 1.0 };
        reject "negative zeros" { snap with zeros = -1 };
        reject "NaN sum" { snap with sum = Float.nan };
        reject "descending buckets"
          { snap with buckets = [| (5, 1); (3, 1) |] };
        reject "non-positive count" { snap with buckets = [| (5, 0) |] };
        reject "index out of range" { snap with buckets = [| (max_int, 1) |] });
    Alcotest.test_case "registry sketches export byte-identically at jobs \
                        1/2/4" `Quick (fun () ->
        let per_jobs jobs =
          with_obs `Metrics_only (fun () ->
              let sk = Metrics.sketch "t.sk.det" in
              ignore
                (Parallel.map_array ~jobs 96 ~f:(fun i ->
                     Metrics.record_sketch sk
                       (float_of_int (1 + (i * 37 mod 101)));
                     i));
              ( Metrics.to_json ~stable_only:true (),
                Metrics.sketch_quantile sk 0.5,
                Metrics.sketch_count sk ))
        in
        check_bool "stable export, median and count all equal" true
          (all_equal (List.map per_jobs job_counts)));
    Alcotest.test_case "sketch registration: idempotent, parameter clashes \
                        raise, disabled registry ignores records" `Quick
      (fun () ->
        with_obs `Off (fun () ->
            let sk = Metrics.sketch "t.sk.gate" in
            Metrics.record_sketch sk 1.0;
            check_int "gated" 0 (Metrics.sketch_count sk));
        with_obs `Metrics_only (fun () ->
            let sk = Metrics.sketch "t.sk.idem" ~alpha:0.02 in
            let sk' = Metrics.sketch "t.sk.idem" ~alpha:0.02 in
            Metrics.record_sketch sk 1.0;
            Metrics.record_sketch sk' 2.0;
            check_int "both handles hit one sketch" 2
              (Metrics.sketch_count sk);
            match Metrics.sketch "t.sk.idem" ~alpha:0.05 with
            | exception Invalid_argument _ -> ()
            | _ -> Alcotest.fail "re-registered with different alpha"));
  ]

(* The Prometheus exporter against its own line-grammar checker. *)

let prometheus_tests =
  [
    Alcotest.test_case "to_prometheus validates against the line grammar"
      `Quick (fun () ->
        with_obs `Metrics_only (fun () ->
            Metrics.add (Metrics.counter "t.prom.c") 3;
            Metrics.set_gauge (Metrics.gauge "t.prom.g") 1.5;
            let h = Metrics.histogram "t.prom.h" ~bounds:[| 0.1; 1.0 |] in
            List.iter (Metrics.observe h) [ 0.05; 0.5; 5.0 ];
            let sk = Metrics.sketch "t.prom.s" in
            for i = 1 to 100 do
              Metrics.record_sketch sk (float_of_int i)
            done;
            let text = Metrics.to_prometheus () in
            match Metrics.validate_prometheus text with
            | Ok n -> check_bool "samples rendered" true (n > 10)
            | Error msg -> Alcotest.failf "invalid exposition: %s" msg));
    Alcotest.test_case "line grammar rejects malformed expositions" `Quick
      (fun () ->
        List.iter
          (fun (what, text) ->
            match Metrics.validate_prometheus text with
            | Ok _ -> Alcotest.failf "accepted %s" what
            | Error _ -> ())
          [
            ("sample before TYPE", "popan_x 1\n");
            ("bad metric name", "# TYPE 9bad counter\n9bad 1\n");
            ("bad type", "# TYPE popan_x wibble\npopan_x 1\n");
            ("unparseable value", "# TYPE popan_x counter\npopan_x one\n");
            ( "unterminated label",
              "# TYPE popan_x counter\npopan_x{a=\"b 1\n" );
            ( "missing label separator",
              "# TYPE popan_x counter\npopan_x{a=\"b\"c=\"d\"} 1\n" );
            ( "non-cumulative buckets",
              "# TYPE popan_h histogram\npopan_h_bucket{le=\"1.0\"} 5\n\
               popan_h_bucket{le=\"2.0\"} 3\npopan_h_bucket{le=\"+Inf\"} 5\n\
               popan_h_sum 1.0\npopan_h_count 5\n" );
            ( "le bounds not increasing",
              "# TYPE popan_h histogram\npopan_h_bucket{le=\"2.0\"} 1\n\
               popan_h_bucket{le=\"1.0\"} 2\npopan_h_bucket{le=\"+Inf\"} 2\n\
               popan_h_sum 1.0\npopan_h_count 2\n" );
            ( "+Inf bucket disagrees with _count",
              "# TYPE popan_h histogram\npopan_h_bucket{le=\"1.0\"} 1\n\
               popan_h_bucket{le=\"+Inf\"} 2\npopan_h_sum 1.0\n\
               popan_h_count 3\n" );
          ]);
  ]

(* The structured event log. *)

let with_quiet_events f =
  Event.set_stderr_mirror false;
  Event.reset ();
  Fun.protect
    ~finally:(fun () ->
      Event.reset ();
      Event.set_stderr_mirror true)
    f

let event_tests =
  [
    Alcotest.test_case "ring retains the newest; every line validates"
      `Quick (fun () ->
        with_quiet_events (fun () ->
            for i = 1 to Event.ring_capacity + 25 do
              Event.emit "t.ev"
                [ ("i", Event.Int i); ("half", Event.Bool (i mod 2 = 0)) ]
            done;
            check_int "count" (Event.ring_capacity + 25) (Event.count ());
            check_int "dropped" 25 (Event.dropped ());
            let lines = Event.recent () in
            check_int "retained" Event.ring_capacity (List.length lines);
            List.iter
              (fun l ->
                match Event.validate_line (parse_exn l) with
                | Ok () -> ()
                | Error msg -> Alcotest.failf "invalid line %s: %s" l msg)
              lines;
            match Obs_json.member "i" (parse_exn (List.hd lines)) with
            | Some (Obs_json.Int i) -> check_int "oldest retained" 26 i
            | _ -> Alcotest.fail "field i missing"));
    Alcotest.test_case "validate_line rejects bad event lines" `Quick
      (fun () ->
        List.iter
          (fun s ->
            match Event.validate_line (parse_exn s) with
            | Ok () -> Alcotest.failf "accepted %s" s
            | Error _ -> ())
          [
            {|{"seq":0,"level":"info","event":"x"}|};
            {|{"ts":1.0,"seq":-1,"level":"info","event":"x"}|};
            {|{"ts":1.0,"seq":0,"level":"loud","event":"x"}|};
            {|{"ts":1.0,"seq":0,"level":"info","event":""}|};
            {|{"ts":1.0,"seq":0,"level":"info"}|};
          ]);
    Alcotest.test_case "sink file receives flushed line JSON" `Quick
      (fun () ->
        let path = Filename.temp_file "popan-events" ".jsonl" in
        with_quiet_events (fun () ->
            Fun.protect
              ~finally:(fun () ->
                Event.close_sink ();
                try Sys.remove path with Sys_error _ -> ())
              (fun () ->
                Event.set_sink_file path;
                Event.emit ~level:Event.Warn "t.sink"
                  [ ("ok", Event.Bool true) ];
                (* Flushed per event: readable before close. *)
                let ic = open_in path in
                let line =
                  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
                      input_line ic)
                in
                match Event.validate_line (parse_exn line) with
                | Ok () -> ()
                | Error m -> Alcotest.failf "sink line invalid: %s" m)));
  ]

(* The flight recorder. *)

let with_flight ?capacity f =
  Flight.reset ();
  Flight.enable ?capacity ();
  Fun.protect
    ~finally:(fun () ->
      Flight.set_slow_threshold infinity;
      Flight.disable ();
      Flight.reset ();
      (* Restore the default ring size for later tests. *)
      Flight.enable ~capacity:Flight.default_capacity ();
      Flight.disable ())
    f

let flight_tests =
  [
    Alcotest.test_case "ring retains newest; totals and drops count" `Quick
      (fun () ->
        with_flight ~capacity:16 (fun () ->
            for i = 1 to 40 do
              Flight.record ~ts:0.0 ~kind:(i mod 5) ~epoch:i ~latency:1e-6
                ~visited:i ~note:""
            done;
            check_int "total" 40 (Flight.total ());
            check_int "dropped" 24 (Flight.dropped ());
            let entries = Flight.recent () in
            check_int "retained" 16 (List.length entries);
            check_int "oldest retained" 25 (List.hd entries).Flight.epoch;
            check_int "limit keeps newest" 40
              (match Flight.recent ~limit:1 () with
              | [ e ] -> e.Flight.epoch
              | l -> List.length l)));
    Alcotest.test_case "disabled recorder records nothing" `Quick (fun () ->
        Flight.reset ();
        Flight.disable ();
        Flight.record ~ts:0.0 ~kind:0 ~epoch:0 ~latency:1.0 ~visited:1 ~note:"";
        check_int "nothing recorded" 0 (Flight.total ());
        check_bool "disabled" false (Flight.enabled ()));
    Alcotest.test_case "slow-query threshold emits a serve.slow_query event"
      `Quick (fun () ->
        with_quiet_events (fun () ->
            with_flight (fun () ->
                Flight.set_slow_threshold 0.001;
                Flight.record ~ts:0.0 ~kind:0 ~epoch:3 ~latency:0.0005 ~visited:5
                  ~note:"";
                check_int "fast query: no event" 0 (Event.count ());
                Flight.record ~ts:0.0 ~kind:2 ~epoch:3 ~latency:0.5 ~visited:900
                  ~note:"";
                check_int "slow query: one event" 1 (Event.count ());
                let line = List.hd (Event.recent ()) in
                match Obs_json.member "event" (parse_exn line) with
                | Some (Obs_json.Str "serve.slow_query") -> ()
                | _ -> Alcotest.failf "unexpected event line %s" line)));
  ]

(* The end-to-end determinism claim: a real experiment records
   byte-identical stable metrics at 1, 2 and 4 domains. *)

let sweep_metrics_tests =
  [
    Alcotest.test_case "Sweep.run: stable metrics JSON is byte-identical \
                        across job counts" `Slow (fun () ->
        let per_jobs jobs =
          with_obs `Metrics_only (fun () ->
              let rows =
                Sweep.run ~capacity:4 ~sizes:[ 64; 128; 256 ] ~jobs
                  ~model:Popan_rng.Sampler.Uniform ~trials:3 ~seed:2024 ()
              in
              (rows, Metrics.to_json ~stable_only:true ()))
        in
        let results = List.map per_jobs job_counts in
        check_bool "rows and stable metrics all equal" true
          (all_equal results);
        (* The export really did count the work. *)
        match List.hd results with
        | _, json ->
          let j = parse_exn json in
          let counter name =
            match
              Option.bind
                (Option.bind (Obs_json.member "counters" j)
                   (Obs_json.member name))
                Obs_json.int_opt
            with
            | Some v -> v
            | None -> Alcotest.failf "counter %s missing" name
          in
          check_int "one trial span per (size, trial)" 9
            (counter "trials.sweep");
          check_bool "builder counted inserts" true
            (counter "builder.inserts" > 0));
  ]

(* Trace *)

let trace_tests =
  [
    Alcotest.test_case "spans record, nest and survive exceptions" `Quick
      (fun () ->
        with_obs `Trace (fun () ->
            Trace.with_span "outer" (fun () ->
                Trace.with_span "inner" (fun () -> ()));
            (try
               Trace.with_span "raiser" (fun () -> failwith "boom")
             with Failure _ -> ());
            Trace.sample "residual" 0.25;
            let events = Trace.events () in
            check_int "four events" 4 (List.length events);
            let find name =
              List.find (fun e -> e.Trace.name = name) events
            in
            let outer = find "outer" and inner = find "inner" in
            check_int "outer depth" 0 outer.Trace.depth;
            check_int "inner depth" 1 inner.Trace.depth;
            check_bool "inner starts inside outer" true
              (inner.Trace.ts >= outer.Trace.ts);
            check_bool "raiser recorded" true
              ((find "raiser").Trace.dur >= 0.0);
            check_bool "sample carries a value" true
              ((find "residual").Trace.value = Some 0.25)));
    Alcotest.test_case "chrome export validates, including under 4 \
                        concurrent domains" `Quick (fun () ->
        with_obs `Trace (fun () ->
            ignore
              (Parallel.map_array ~jobs:4 64 ~f:(fun i ->
                   Trace.with_span "level1"
                     ~args:[ ("i", Trace.Int i) ]
                     (fun () ->
                       Trace.with_span "level2" (fun () -> i * i))));
            let b = Buffer.create 4096 in
            Trace.export_chrome b;
            match Trace.validate_chrome (parse_exn (Buffer.contents b)) with
            | Ok n ->
              (* 64 tasks x (task + level1 + level2) + batch + reduce *)
              check_int "span count" 194 n
            | Error msg -> Alcotest.failf "invalid chrome trace: %s" msg));
    prop ~count:10 "span nesting is well-formed for any workload shape"
      QCheck2.Gen.(pair (int_range 1 40) (int_range 0 3))
      (fun (tasks, extra_depth) ->
        with_obs `Trace (fun () ->
            ignore
              (Parallel.map_array ~jobs:4 tasks ~f:(fun i ->
                   let rec nest d =
                     if d = 0 then i
                     else Trace.with_span "nest" (fun () -> nest (d - 1))
                   in
                   nest extra_depth));
            let b = Buffer.create 4096 in
            Trace.export_chrome b;
            match Trace.validate_chrome (parse_exn (Buffer.contents b)) with
            | Ok _ -> true
            | Error _ -> false));
    Alcotest.test_case "ring overflow drops oldest and counts them" `Quick
      (fun () ->
        Probe.set_level `Off;
        Trace.clear ();
        Trace.enable ~capacity:16 ();
        Fun.protect
          ~finally:(fun () ->
            Trace.disable ();
            Trace.clear ();
            (* Restore the default ring size for later tests. *)
            Trace.enable ();
            Trace.disable ())
          (fun () ->
            for i = 1 to 40 do
              Trace.with_span "s" (fun () -> ignore i)
            done;
            check_int "survivors" 16 (List.length (Trace.events ()));
            check_int "dropped" 24 (Trace.dropped ())));
    Alcotest.test_case "disabled tracing records nothing and passes values \
                        through" `Quick (fun () ->
        with_obs `Off (fun () ->
            check_int "value" 7 (Trace.with_span "ghost" (fun () -> 7));
            check_int "no events" 0 (List.length (Trace.events ()))));
  ]

(* Store accounting through the registry (the always-on counters). *)

let store_obs_tests =
  [
    Alcotest.test_case "store counters reach the registry even with obs \
                        off" `Quick (fun () ->
        with_obs `Off (fun () ->
            let dir =
              Filename.concat (Filename.get_temp_dir_name ())
                (Printf.sprintf "popan-obs-store-%d" (Unix.getpid ()))
            in
            let s = Store.open_store dir in
            let codec = Popan_store.Codec.int in
            check_bool "miss" true
              (Store.find s ~kind:"t" ~version:1 ~key:"k" codec = None);
            Store.put s ~kind:"t" ~version:1 ~key:"k" codec 5;
            check_bool "hit" true
              (Store.find s ~kind:"t" ~version:1 ~key:"k" codec = Some 5);
            let c = Store.counters s in
            check_int "hits" 1 c.Store.hits;
            check_int "misses" 1 c.Store.misses;
            check_int "puts" 1 c.Store.puts;
            let h, m, _, p = Probe.store_counts () in
            check_bool "registry saw at least this handle's traffic" true
              (h >= 1 && m >= 1 && p >= 1)));
  ]

let () =
  Alcotest.run "popan_obs"
    [
      ("obs_json", json_tests);
      ("metrics", metrics_tests);
      ("sketch", sketch_tests);
      ("prometheus", prometheus_tests);
      ("event", event_tests);
      ("flight", flight_tests);
      ("sweep_metrics", sweep_metrics_tests);
      ("trace", trace_tests);
      ("store_obs", store_obs_tests);
    ]
