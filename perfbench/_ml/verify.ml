(* Output checks. A batch's answers reduce to one digest; a received
   response is first checked for shape (an [Answers] of the right
   arity), and its (epoch, digest) is later compared with the oracle's.
   A failed batch carries the reason. *)

module Point = Popan_geom.Point
module Box = Popan_geom.Box
module Wire = Popan_serve.Wire

(* FNV-1a's multiply over 63-bit words. Each step is a bijection of the
   running hash for a fixed input word, and of the input word for a
   fixed hash, so any single changed word changes the digest. *)
let mix h x = (h lxor x) * 0x100000001b3

(* The low 63 bits and the high 32 bits together carry all 64 bits of
   the float, sign included. *)
let mix_float h f =
  let b = Int64.bits_of_float f in
  mix (mix h (Int64.to_int b)) (Int64.to_int (Int64.shift_right_logical b 32))

let mix_point h (p : Point.t) = mix_float (mix_float h p.Point.x) p.Point.y

let mix_points h ps = Array.fold_left mix_point (mix h (Array.length ps)) ps

let mix_answer h (a : Wire.answer) =
  match a with
  | Wire.Points ps -> mix_points (mix h 1) ps
  | Wire.Count_of n -> mix (mix h 2) n
  | Wire.Cell_info (depth, b, ps) ->
    let h = mix (mix h 3) depth in
    let h = mix_float (mix_float h b.Box.xmin) b.Box.ymin in
    let h = mix_float (mix_float h b.Box.xmax) b.Box.ymax in
    mix_points h ps
  | Wire.Rejected m -> String.fold_left (fun h c -> mix h (Char.code c)) (mix h 4) m

let digest answers =
  Array.fold_left mix_answer (mix 0x2bf29ce484222325 (Array.length answers)) answers

(* Points carried by a batch's answers: Range, Knn and Nearest members
   plus each cell's contents. *)
let answer_points answers =
  Array.fold_left
    (fun acc (a : Wire.answer) ->
      match a with
      | Wire.Points ps | Wire.Cell_info (_, _, ps) -> acc + Array.length ps
      | Wire.Count_of _ | Wire.Rejected _ -> acc)
    0 answers

type observed = { epoch : int; digest : int; points : int }

(* The shape check, made as the response arrives. *)
let observe ~arity (resp : (Wire.response, string) result option) =
  match resp with
  | Some (Ok (Wire.Answers { epoch; answers })) ->
    if Array.length answers <> arity then
      Error
        (Printf.sprintf "%d answers for %d queries" (Array.length answers) arity)
    else Ok { epoch; digest = digest answers; points = answer_points answers }
  | Some (Ok (Wire.Refused reason)) -> Error ("refused: " ^ reason)
  | Some (Ok _) -> Error "response is not Answers"
  | Some (Error reason) -> Error ("malformed response frame: " ^ reason)
  | None -> Error "server closed the connection"

(* The oracle comparison, made after the timed phase. *)
let agree ~expected:(epoch, digest) observed =
  match observed with
  | Error _ as e -> e
  | Ok o when o.epoch <> epoch ->
    Error (Printf.sprintf "answered from epoch %d, oracle epoch %d" o.epoch epoch)
  | Ok o when o.digest <> digest -> Error "answers differ from the oracle"
  | Ok _ -> Ok ()
