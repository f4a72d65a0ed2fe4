open Import

type epoch = {
  id : int;
  arena : Pr_arena.t;
  mutable pins : int;
  mutable retired : bool;
}

let id e = e.id
let arena e = e.arena
let pins e = e.pins

type t = {
  mutex : Mutex.t;
  mutable current : epoch;
  (* Every published epoch whose arena is still alive: the current one
     plus superseded epochs kept alive by readers' pins. *)
  mutable live : epoch list;
  mutable next_id : int;
  (* The newest retired epoch's arena, with its epoch id, kept for the
     churn writer to catch up by replay ([take_spare]). *)
  mutable spare : (int * Pr_arena.t) option;
}

(* Retirement is the only place an epoch leaves the live list. Its
   arena becomes the spare when it is newer than the one held — only a
   spare one epoch behind the current one catches up by replaying one
   slice — and the other is released. A heap-backed arena has nothing
   to release (the GC takes it once unreachable); releasing anyway
   keeps the mmap story uniform for a served mmap-backed build. *)
let retire t e =
  if not e.retired then begin
    e.retired <- true;
    Probe.serve_retire ~epoch:e.id;
    match t.spare with
    | Some (id, _) when id > e.id -> Pr_arena.release e.arena
    | old ->
      Option.iter (fun (_, a) -> Pr_arena.release a) old;
      t.spare <- Some (e.id, e.arena)
  end

let sweep t =
  let keep, drop =
    List.partition (fun e -> e.id = t.current.id || e.pins > 0) t.live
  in
  List.iter (retire t) drop;
  t.live <- keep

let create arena =
  let e = { id = 0; arena; pins = 0; retired = false } in
  Probe.serve_publish ~epoch:0 ~size:(Pr_arena.size arena);
  {
    mutex = Mutex.create ();
    current = e;
    live = [ e ];
    next_id = 1;
    spare = None;
  }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let publish t arena =
  locked t (fun () ->
      let e = { id = t.next_id; arena; pins = 0; retired = false } in
      t.next_id <- t.next_id + 1;
      t.current <- e;
      t.live <- e :: t.live;
      sweep t;
      Probe.serve_publish ~epoch:e.id ~size:(Pr_arena.size arena);
      e)

let current t = locked t (fun () -> t.current)
let current_id t = locked t (fun () -> t.current.id)

let copy arena =
  let c = Pr_arena.snapshot arena in
  Probe.serve_publish_copy ~bytes:(Pr_arena.copy_bytes arena);
  c

let create_from live =
  let t = create (copy live) in
  t.spare <- Some (-1, live);
  t

(* Outside the lock: readers keep pinning and unpinning while the
   writer copies, and only a publish, which is the writer's, could
   supersede the epoch being read. *)
let copy_current t = copy (current t).arena

let take_spare t =
  locked t (fun () ->
      let s = t.spare in
      t.spare <- None;
      s)

let live_count t = locked t (fun () -> List.length t.live)

let pin t =
  locked t (fun () ->
      let e = t.current in
      e.pins <- e.pins + 1;
      Probe.serve_pin ~epoch:e.id;
      e)

let unpin t e =
  locked t (fun () ->
      if e.pins <= 0 then invalid_arg "Epoch.unpin: epoch not pinned";
      e.pins <- e.pins - 1;
      sweep t)

let shutdown t =
  locked t (fun () ->
      List.iter (retire t) t.live;
      t.live <- [];
      Option.iter (fun (_, a) -> Pr_arena.release a) t.spare;
      t.spare <- None)

let check_invariants t =
  locked t (fun () ->
      let problems = ref [] in
      let report fmt =
        Format.kasprintf (fun s -> problems := !problems @ [ s ]) fmt
      in
      if not (List.exists (fun e -> e.id = t.current.id) t.live) then
        report "current epoch %d is not in the live list" t.current.id;
      let ids = List.map (fun e -> e.id) t.live in
      if List.length (List.sort_uniq compare ids) <> List.length ids then
        report "duplicate epoch ids in the live list";
      List.iter
        (fun e ->
          if e.retired then report "epoch %d is retired but still live" e.id;
          if e.pins < 0 then report "epoch %d has negative pin count" e.id;
          if e.id <> t.current.id && e.pins = 0 then
            report "superseded epoch %d unpinned but not reclaimed" e.id;
          if e.id >= t.next_id then
            report "epoch %d at or above the next id %d" e.id t.next_id;
          (* Cross-epoch slot ownership: each epoch's arena must account
             for every one of its own slots (stored + free lists tile the
             high-water mark). *)
          List.iter
            (fun p -> report "epoch %d: %s" e.id p)
            (Pr_arena.check_invariants e.arena))
        t.live;
      (* Disjointness: no two live epochs, and no live epoch and the
         spare, hold the same column — the writer replays into the
         spare, and a reader must never see that. *)
      let rec pairs = function
        | [] -> ()
        | (a, x) :: rest ->
          List.iter
            (fun (b, y) ->
              if Pr_arena.shares_columns x y then
                report "%s and %s share a column" a b)
            rest;
          pairs rest
      in
      pairs
        (List.map (fun e -> (Printf.sprintf "epoch %d" e.id, e.arena)) t.live
        @ List.map
            (fun (id, a) -> (Printf.sprintf "the spare (epoch %d)" id, a))
            (Option.to_list t.spare));
      !problems)
