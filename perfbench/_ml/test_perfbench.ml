(* Tests of the benchmark's own OCaml code: the digest check catches a
   single flipped answer byte, and the query generators keep their
   anchors in the workload's region and their Range answers near 16
   points. Run with `python3 perfbench/run.py --self-test`. *)

module Point = Popan_geom.Point
module Box = Popan_geom.Box
module Wire = Popan_serve.Wire
module Server = Popan_serve.Server
module Codec = Popan_store.Codec
module Pr_arena = Popan_trees.Pr_arena
module Sampler = Popan_rng.Sampler
module Xoshiro = Popan_rng.Xoshiro

let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt

(* Every single-byte flip of an encoded response either fails to decode
   or fails the check against the true (epoch, digest). *)
let flipped_byte_fails_batch () =
  let t =
    Server.create { (Spec.config Spec.serve_hot ~seed:5) with Server.base_points = 4000 }
  in
  let queries = Array.sub (Spec.batch Spec.serve_hot ~seed:5 0) 0 40 in
  let epoch, answers = Server.run_queries t queries in
  Server.shutdown t;
  let expected = (epoch, Verify.digest answers) in
  let bytes = Codec.encode Wire.response (Wire.Answers { epoch; answers }) in
  let verdict s =
    match Codec.decode Wire.response s with
    | exception Failure _ -> Error "undecodable"
    | resp -> Verify.agree ~expected (Verify.observe ~arity:40 (Some (Ok resp)))
  in
  if verdict bytes <> Ok () then fail "digest: the intact response fails its check";
  for i = 0 to String.length bytes - 1 do
    let b = Bytes.of_string bytes in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x10));
    if verdict (Bytes.to_string b) = Ok () then
      fail "digest: flipping byte %d of %d went unnoticed" i (String.length bytes)
  done

let anchored_in (lo, hi) (q : Wire.query) =
  let inside x = x >= lo && x < hi in
  let in_box (b : Box.t) =
    inside b.Box.xmin && inside b.Box.ymin && b.Box.xmax <= hi && b.Box.ymax <= hi
    && b.Box.xmin < b.Box.xmax && b.Box.ymin < b.Box.ymax
  in
  match q with
  | Wire.Range b | Wire.Count b -> in_box b
  | Wire.Knn (k, p) -> k >= 1 && k <= 16 && inside p.Point.x && inside p.Point.y
  | Wire.Nearest p | Wire.Cell p -> inside p.Point.x && inside p.Point.y

let generators_stay_in_region () =
  List.iter
    (fun (w : Spec.serve) ->
      for seed = 0 to 3 do
        for k = 0 to 99 do
          let qs = Spec.batch w ~seed k in
          if Array.length qs <> w.Spec.batch_size then fail "%s: batch size" w.Spec.name;
          Array.iteri
            (fun i q ->
              if not (anchored_in w.Spec.region q) then
                fail "%s seed %d batch %d query %d: anchored outside the region"
                  w.Spec.name seed k i)
            qs
        done
      done)
    Spec.serve_workloads;
  (* serve-hot's region is the centred square of side 1/8. *)
  let lo, hi = Spec.serve_hot.Spec.region in
  if Float.abs (hi -. lo -. 0.125) > 1e-12 || Float.abs (lo +. hi -. 1.0) > 1e-12 then
    fail "serve-hot: region is not the centred square of side 1/8"

(* On a uniform tree at the served size, Range boxes hold about 16
   points and serve-publish's Count boxes count about 16. *)
let range_answers_near_sixteen () =
  let rng = Xoshiro.of_int_seed 77 in
  let arena =
    Pr_arena.bulk_of_fn ~capacity:Spec.capacity ~n:Spec.served_points (fun _ ->
        Sampler.point rng Sampler.Uniform)
  in
  let mean_count w kind =
    let total = ref 0 and n = ref 0 in
    for k = 0 to 19 do
      Array.iter
        (fun (q : Wire.query) ->
          match (q, kind) with
          | Wire.Range b, `Range | Wire.Count b, `Count ->
            total := !total + Pr_arena.count_in_box arena b;
            incr n
          | _ -> ())
        (Spec.batch w ~seed:3 k)
    done;
    float_of_int !total /. float_of_int !n
  in
  List.iter
    (fun (w, kind, label) ->
      let m = mean_count w kind in
      if m < 14.5 || m > 17.5 then fail "%s: %s boxes average %.2f points" w.Spec.name label m)
    [ (Spec.serve_hot, `Range, "Range"); (Spec.serve_publish, `Range, "Range");
      (Spec.serve_publish, `Count, "Count") ]

let () =
  flipped_byte_fails_batch ();
  generators_stay_in_region ();
  range_answers_near_sixteen ();
  print_endline "perfbench OCaml tests: ok"
