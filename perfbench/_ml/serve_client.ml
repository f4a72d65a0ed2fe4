(* One client, one connection, closed loop: the next request goes out
   only after the previous response is decoded. [popan serve] accepts
   one connection at a time and answers in order, so a second client or
   pipelined sends would only queue in the socket buffer. *)

module Wire = Popan_serve.Wire
module Server = Popan_serve.Server
module Clock = Popan_obs.Clock

exception Failed of string

let failf fmt = Printf.ksprintf (fun m -> raise (Failed m)) fmt

(* Every server this process spawned and has not reaped. [kill_all]
   runs at exit, so a failed run leaves no server behind. *)
let children : int list ref = ref []

let reap pid =
  children := List.filter (( <> ) pid) !children;
  snd (Unix.waitpid [] pid)

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (reap pid : Unix.process_status))
    !children

let () = at_exit kill_all

(* The machine's busy and stolen CPU time so far, in clock ticks, from
   the first line of /proc/stat: user, nice, system, irq and softirq are
   busy; steal is time the hypervisor ran something else while a CPU
   had work. Sampled around each timed interval, so perfbench/run.py can
   net the hypervisor's share out of it. *)
let cpu_ticks () =
  let ic = open_in "/proc/stat" in
  let line = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
  match List.filter (( <> ) "") (String.split_on_char ' ' line) with
  | "cpu" :: user :: nice :: system :: _idle :: _iowait :: irq :: softirq :: steal :: _ ->
    ( List.fold_left (fun n f -> n + int_of_string f) 0 [ user; nice; system; irq; softirq ],
      int_of_string steal )
  | _ -> failf "unexpected first line of /proc/stat: %s" line

type conn = {
  pid : int;
  fd : Unix.file_descr;
  ic : in_channel;
  oc : out_channel;
  setup_s : float;
  setup_ticks : (int * int) * (int * int);  (** [cpu_ticks] at spawn and at the reply *)
}

let exited pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ ->
    children := List.filter (( <> ) pid) !children;
    true

(* Connect as soon as the server listens: it binds the socket only after
   building its tree and publishing epoch 0. *)
let rec connect ~socket ~pid ~deadline =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () -> fd
  | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
    Unix.close fd;
    if exited pid then failf "popan serve exited before listening on %s" socket;
    if Clock.now_ns () > deadline then failf "popan serve never listened on %s" socket;
    Unix.sleepf 0.002;
    connect ~socket ~pid ~deadline

(* Spawn [popan serve] and time it from the spawn to the first [Stats]
   reply: population, bulk build, epoch 0 and bind. *)
let start ~popan ~socket w ~seed =
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let argv = Array.of_list (popan :: Spec.serve_args w ~seed ~socket) in
  let ticks0 = cpu_ticks () in
  let t0 = Clock.now_ns () in
  let pid = Unix.create_process popan argv Unix.stdin Unix.stderr Unix.stderr in
  children := pid :: !children;
  let fd = connect ~socket ~pid ~deadline:(t0 + 120_000_000_000) in
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  set_binary_mode_in ic true;
  set_binary_mode_out oc true;
  Wire.write_request oc Wire.Stats;
  match Wire.read_response ic with
  | Some (Ok (Wire.Stats_info { size; epoch = 0; batches = 0; _ }))
    when size = Spec.served_points ->
    let setup_s = Clock.seconds_between t0 (Clock.now_ns ()) in
    { pid; fd; ic; oc; setup_s; setup_ticks = (ticks0, cpu_ticks ()) }
  | _ -> failf "%s: unexpected first Stats reply" w.Spec.name

(* VmHWM of the server: its peak resident set so far, in MB. *)
let peak_rss_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> failf "no VmHWM in /proc/%d/status" pid
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
            (fun kb -> float_of_int kb /. 1024.0)
        | _ -> scan ()
      in
      scan ())

let quit c =
  Wire.write_request c.oc Wire.Quit;
  (match Wire.read_response c.ic with
  | Some (Ok Wire.Bye) -> ()
  | _ -> failf "server did not acknowledge Quit");
  Unix.close c.fd;
  match reap c.pid with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED n -> failf "popan serve exited with code %d" n
  | Unix.WSIGNALED s | Unix.WSTOPPED s -> failf "popan serve stopped by signal %d" s

type loop = {
  rtt_ms : float array;  (** client round trip per timed batch, in order *)
  observed : (Verify.observed, string) result array;  (** every batch *)
  phase_s : float;  (** from the first timed send to the last reply *)
  phase_ticks : (int * int) * (int * int);  (** [cpu_ticks] around the phase *)
  points : int;  (** answer points of the timed batches *)
}

(* Send batches [0, 1, ...]: [warmup] of them untimed, then more for
   [seconds] (or until [max_batches] in all); each round trip runs from
   writing the request to holding the decoded response. Every batch is
   checked. A broken response ends the loop: the stream position is then
   undefined. *)
let closed_loop ?(max_batches = max_int) ~warmup c w ~seed ~seconds =
  let rtts = ref [] and observed = ref [] and points = ref 0 in
  let start = ref (Clock.now_ns ()) and ticks0 = ref (cpu_ticks ()) in
  let rec go k =
    if k = warmup then begin
      ticks0 := cpu_ticks ();
      start := Clock.now_ns ()
    end;
    let queries = Spec.batch w ~seed k in
    let t0 = Clock.now_ns () in
    Wire.write_request c.oc (Wire.Batch queries);
    let resp = Wire.read_response c.ic in
    let t1 = Clock.now_ns () in
    let o = Verify.observe ~arity:(Array.length queries) resp in
    observed := o :: !observed;
    if k >= warmup then begin
      rtts := (float_of_int (t1 - t0) *. 1e-6) :: !rtts;
      match o with Ok o -> points := !points + o.Verify.points | Error _ -> ()
    end;
    match resp with
    | Some (Ok (Wire.Answers _))
      when k + 1 < max_batches
           && (k < warmup || t1 - !start < int_of_float (seconds *. 1e9)) ->
      go (k + 1)
    | _ -> t1
  in
  let stop = go 0 in
  {
    rtt_ms = Array.of_list (List.rev !rtts);
    observed = Array.of_list (List.rev !observed);
    phase_s = Clock.seconds_between !start stop;
    phase_ticks = (!ticks0, cpu_ticks ());
    points = !points;
  }

(* The oracle: the same server in process, answering the same batches
   in the same order — (epoch, digest) per batch [0, batches). *)
let oracle w ~seed ~batches =
  let t = Server.create (Spec.config w ~seed) in
  Fun.protect
    ~finally:(fun () -> Server.shutdown t)
    (fun () ->
      Array.init batches (fun k ->
          let epoch, answers = Server.run_queries t (Spec.batch w ~seed k) in
          (epoch, Verify.digest answers)))
