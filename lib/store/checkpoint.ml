open Import

type growth = {
  points : Point.t array;
  rng : Xoshiro.t;
  next_index : int;
  have : int;
  partial : (float * float) array;
  ops_done : int;
}

let kind = "ckpt-grow"
let version = 3

(* The field order below is the on-disk format; bump [version] when it
   changes. v3 replaced v2's frozen tree and churn live set with one
   point array — the tree is a function of its points — so v1 and v2
   records are other version numbers, and [find] never decodes one
   here. *)
let codec =
  let tuple =
    Codec.(
      pair
        (triple points xoshiro
           (triple int int (array (pair float float))))
        int)
  in
  Codec.map tuple
    ~decode:(fun ((points, rng, (next_index, have, partial)), ops_done) ->
      { points; rng; next_index; have; partial; ops_done })
    ~encode:(fun g ->
      ((g.points, g.rng, (g.next_index, g.have, g.partial)), g.ops_done))

let ckpt_key ~key_base ~index = Printf.sprintf "%s|ckpt=%d" key_base index

let save store ~key_base ~index g =
  Artifact_store.put store ~kind ~version ~key:(ckpt_key ~key_base ~index)
    codec g

let latest store ~key_base ~upto =
  let rec probe index =
    if index < 0 then None
    else
      match
        Artifact_store.find store ~kind ~version
          ~key:(ckpt_key ~key_base ~index) codec
      with
      | Some g
        when g.next_index = index + 1
             && (g.ops_done > 0 || Array.length g.partial = g.next_index) ->
        Some g
      | Some _ (* inconsistent record: skip it *) | None -> probe (index - 1)
  in
  probe (upto - 1)
