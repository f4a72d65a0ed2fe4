open Import

let largest_first ~sizes ~trials =
  if trials <= 0 then invalid_arg "Fan_out.largest_first: trials <= 0";
  let order = Array.init (Array.length sizes * trials) Fun.id in
  Array.stable_sort
    (fun a b -> compare sizes.(b / trials) sizes.(a / trials))
    order;
  order

let run ?jobs ~experiment ~sizes ~trials ~seed f =
  let order = largest_first ~sizes ~trials in
  let total = Array.length order in
  (* Pre-split one generator per pair, in the historical nested order:
     every build's stream is fixed before any domain starts, so the
     results cannot depend on the schedule. *)
  let master = Xoshiro.of_int_seed seed in
  let rngs = Array.make (max total 1) master in
  for k = 0 to total - 1 do
    rngs.(k) <- Xoshiro.split master
  done;
  let started =
    Parallel.map_array ?jobs total ~f:(fun i ->
        let k = order.(i) in
        let n = sizes.(k / trials) in
        Probe.trial ~experiment ~index:k ~n (fun () -> f ~k ~n rngs.(k)))
  in
  let rank = Array.make total 0 in
  Array.iteri (fun i k -> rank.(k) <- i) order;
  Array.init total (fun k -> started.(rank.(k)))
