(* serve_chain: an open-loop arrival schedule against `ppvi serve`.

   The daemon runs as its own process on a Unix socket inside the
   checkout. One generator thread sends each request over one of two
   connections when it falls due, whether or not earlier replies have
   come back, so a stalled daemon is charged for every request that
   queued behind the stall. Latency runs from the scheduled send time
   to the reply's arrival. *)

open Common

let model = "chain"
let nominal = 250. (* offered req/s *)

(* Every repeat runs this long on a fresh daemon: about 300 requests at
   the nominal rate. *)
let repeat_s = 1.25

(* The rest of the ladder, as (rate, repeats), run in the traced mode
   only: the highest rate overloads the daemon, so what it completes is
   its capacity. *)
let ladder = [ (500., 1); (750., 1); (1000., 1); (1500., 3) ]
let limit_ms = 10. (* p99 latency limit for a ladder step to pass *)
let connections = 2
let resend_sample = 64
let run_dir = ".perfbench-run"

(* ------------------------------------------------------------------ *)
(* Daemon process *)

type daemon = { pid : int; sock : string }

(* Daemons started and not yet stopped, so an interrupted run can stop
   them too (see [stop_all]). *)
let live : daemon list ref = ref []

let ppvi_exe () =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    (Filename.concat "bin" "ppvi.exe")

let rec connect_until ~deadline sock =
  match Serve.Client.connect (`Unix sock) with
  | c -> c
  | exception (Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) as e) ->
    if now () > deadline then raise e;
    Unix.sleepf 0.0002;
    connect_until ~deadline sock

(* Spawns the daemon with the default configuration (one domain, the
   default coalescing window) and returns once its hello reply arrives:
   model registration and plan staging happen before it listens. *)
let spawn ?trace i =
  if not (Sys.file_exists run_dir) then Unix.mkdir run_dir 0o755;
  let sock = Printf.sprintf "%s/d%d-%d.sock" run_dir (Unix.getpid ()) i in
  let args =
    [ ppvi_exe (); "serve"; "--socket"; sock ]
    @ match trace with Some f -> [ "--trace"; f ] | None -> []
  in
  let env =
    Array.of_list
      (List.filter
         (fun kv -> not (String.starts_with ~prefix:"PPVI_DOMAINS=" kv))
         (Array.to_list (Unix.environment ())))
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let t0 = now () in
  let pid =
    Unix.create_process_env (List.hd args) (Array.of_list args) env devnull devnull
      devnull
  in
  Unix.close devnull;
  let d = { pid; sock } in
  live := d :: !live;
  let c = connect_until ~deadline:(t0 +. 60.) sock in
  let dt = now () -. t0 in
  Serve.Client.close c;
  (d, dt)

(* SIGTERM drains the daemon, which is quick once the benchmark has
   closed its connections; an interrupted run uses SIGKILL instead. *)
let stop ?(signal = Sys.sigterm) d =
  live := List.filter (fun x -> x.pid <> d.pid) !live;
  (try Unix.kill d.pid signal with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] d.pid);
  try Sys.remove d.sock with Sys_error _ -> ()

let stop_all () = List.iter (stop ~signal:Sys.sigkill) !live

let stats d =
  let c = Serve.Client.connect (`Unix d.sock) in
  let r = Serve.Client.call c Proto.Stats in
  Serve.Client.close c;
  match r with
  | Proto.R_stats j -> j
  | _ -> failwith "stats: unexpected reply"

let stat j k =
  match Obs.Json.member k j with Some (Obs.Json.Num f) -> f | _ -> nan

(* ------------------------------------------------------------------ *)
(* Open-loop generator *)

type req_rec = {
  idx : int;
  op : string;
  due : float;
  mutable sent : float;
  mutable reply : Proto.reply option;
  mutable arrived : float;
}

type step_result = {
  rate : float;
  recs : req_rec array;
  t_start : float;
  failed : int;  (** malformed, mis-numbered, error or missing replies *)
  inflight_max : int;
  growing : bool;  (** in-flight requests grew over the step *)
}

let lat_ms r = 1000. *. (r.arrived -. r.due)

let request ~seed idx = Serve.nth_request ~model ~seed idx

(* A raw connection with the hello handshake done: the generator
   pipelines requests, which Serve.Client's round-trip call cannot. *)
let open_conn d =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX d.sock);
  Proto.write_frame fd
    (Proto.encode_request
       { Proto.id = 0; deadline_ms = None;
         req = Proto.Hello { version = Proto.build_version; schema = Proto.schema_version } });
  (match Result.map Proto.decode_reply (Proto.read_frame fd) with
  | Ok (Ok { Proto.reply = Proto.R_hello _; _ }) -> ()
  | _ -> failwith "serve handshake failed");
  fd

(* Arrivals evenly spaced at [rate] for [duration] seconds, request
   indices from [first]. Request [i] goes to connection [(i / 2) mod 2],
   so both connections carry both request kinds. The generator (this
   thread) only sends; one reader thread per connection takes replies
   as they arrive, so the daemon is never blocked writing a reply while
   the generator is blocked writing a request. *)
let run_step d ~seed ~rate ~duration ~first =
  let n = max 1 (int_of_float (rate *. duration)) in
  let fds = Array.init connections (fun _ -> open_conn d) in
  let t_start = now () +. 0.01 in
  let recs =
    Array.init n (fun j ->
        let idx = first + j in
        { idx;
          op = Proto.request_op (request ~seed idx);
          due = t_start +. (float_of_int j /. rate);
          sent = nan;
          reply = None;
          arrived = nan })
  in
  (* Per connection, the requests awaiting a reply, oldest first: the
     daemon answers each connection in order. *)
  let pending = Array.init connections (fun _ -> (Mutex.create (), Queue.create ())) in
  let failed = Atomic.make 0 and inflight = Atomic.make 0 and received = Atomic.make 0 in
  let readers_left = Atomic.make connections in
  let reader c () =
    let lock, q = pending.(c) in
    let rec loop () =
      match Proto.read_frame fds.(c) with
      | Error _ -> Atomic.decr readers_left
      | Ok j ->
        let t = now () in
        Mutex.lock lock;
        let r = Queue.take_opt q in
        Mutex.unlock lock;
        (match (r, Proto.decode_reply j) with
        | Some r, Ok { Proto.rid; reply } when rid = r.idx ->
          r.reply <- Some reply;
          r.arrived <- t;
          (match reply with
          | Proto.R_value v when Float.is_finite v -> ()
          | _ -> Atomic.incr failed)
        | _ -> Atomic.incr failed);
        Atomic.decr inflight;
        Atomic.incr received;
        loop ()
    in
    loop ()
  in
  let readers = Array.init connections (fun c -> Thread.create (reader c) ()) in
  let inflight_at_send = Array.make n 0 in
  let inflight_max = ref 0 in
  Array.iteri
    (fun j r ->
      let wait = r.due -. now () in
      if wait > 0. then Unix.sleepf wait;
      let c = (r.idx / 2) mod connections in
      let lock, q = pending.(c) in
      Mutex.lock lock;
      Queue.add r q;
      Mutex.unlock lock;
      let k = Atomic.fetch_and_add inflight 1 in
      inflight_at_send.(j) <- k;
      inflight_max := max !inflight_max (k + 1);
      r.sent <- now ();
      (* A request the daemon cannot take gets no reply, and counts as
         lost below. *)
      try
        Proto.write_frame fds.(c)
          (Proto.encode_request { Proto.id = r.idx; deadline_ms = None; req = request ~seed r.idx })
      with Unix.Unix_error _ -> ())
    recs;
  let give_up = now () +. 30. in
  while Atomic.get received < n && Atomic.get readers_left > 0 && now () < give_up do
    Unix.sleepf 0.001
  done;
  Array.iter (fun fd -> try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()) fds;
  Array.iter Thread.join readers;
  Array.iter Unix.close fds;
  let lost = Array.fold_left (fun k r -> if r.reply = None then k + 1 else k) 0 recs in
  (* Backlog growth: mean in-flight at send over the step's second half
     against its first half. *)
  let half_mean lo hi =
    let s = ref 0 in
    for j = lo to hi - 1 do s := !s + inflight_at_send.(j) done;
    float_of_int !s /. float_of_int (max 1 (hi - lo))
  in
  let first_half = half_mean 0 (n / 2) and second_half = half_mean (n / 2) n in
  { rate; recs; t_start;
    failed = Atomic.get failed + lost;
    inflight_max = !inflight_max;
    growing = second_half > (1.5 *. first_half) +. 2. }

let latencies ?op st =
  Array.to_list st.recs
  |> List.filter (fun r -> r.reply <> None && (op = None || Some r.op = op))
  |> List.map lat_ms

let p99 st = quantile (latencies st) 0.99

let passes st = st.failed = 0 && (not st.growing) && p99 st <= limit_ms

(* Seconds from the step's start to its last reply. *)
let span st =
  Array.fold_left
    (fun a r -> if r.reply = None then a else Float.max a r.arrived)
    st.t_start st.recs
  -. st.t_start

(* Achieved completions per second over the step. *)
let achieved st = float_of_int (List.length (latencies st)) /. span st

(* Replies to a fixed sample of the load's requests must come back bit
   for bit when each is sent again, alone, on a fresh connection. *)
let resend_check d ~seed st =
  let c = Serve.Client.connect (`Unix d.sock) in
  let recs = Array.to_list st.recs |> List.filter (fun r -> r.reply <> None) in
  let stride = max 1 (List.length recs / resend_sample) in
  let sample = List.filteri (fun i _ -> i mod stride = 0) recs in
  let bad =
    List.fold_left
      (fun bad r ->
        match (r.reply, Serve.Client.call c (request ~seed r.idx)) with
        | Some (Proto.R_value a), Proto.R_value b
          when Proto.wire_value_equal (Proto.Scalar a) (Proto.Scalar b) -> bad
        | _ -> bad + 1)
      0 sample
  in
  Serve.Client.close c;
  (List.length sample, bad)

(* ------------------------------------------------------------------ *)
(* Results *)

let clean_up () =
  (try
     Array.iter (fun f -> Sys.remove (Filename.concat run_dir f)) (Sys.readdir run_dir);
     Unix.rmdir run_dir
   with Sys_error _ | Unix.Unix_error _ -> ())

(* One ladder step on a fresh daemon. The daemon's memory grows with
   the requests it has served, so a fresh process per step makes each
   step independent of the ones before it. *)
type repeat = {
  st : step_result;
  setup : float;  (** spawn to hello reply, seconds *)
  rss : float;  (** the daemon's peak RSS, MB *)
  resent : int;
  resend_bad : int;
}

let fresh_step ~seed ~rate ~first ~check =
  let d, setup = spawn first in
  Fun.protect ~finally:(fun () -> stop d) (fun () ->
      let st = run_step d ~seed ~rate ~duration:repeat_s ~first in
      let resent, resend_bad = if check then resend_check d ~seed st else (0, 0) in
      (* A daemon that died has no memory figure; its lost replies
         already count as failed. *)
      let rss = try peak_rss_mb (Some d.pid) with Failure _ | Sys_error _ -> nan in
      { st; setup; rss; resent; resend_bad })

let step_line st =
  Printf.sprintf
    "rate %6.0f req/s: %5d sent, %d failed, p50 %.3f ms, p99 %.3f ms, \
     achieved %.1f req/s, in-flight max %d%s -> %s"
    st.rate (Array.length st.recs) st.failed
    (quantile (latencies st) 0.5) (p99 st) (achieved st) st.inflight_max
    (if st.growing then " (growing)" else "")
    (if passes st then "pass" else "fail")

(* Runs [(rate, repeats)] in order, each repeat with its own request
   indices; the first nominal repeat is resent for the bit-identity
   check. *)
let run_plan ~seed ~first plan =
  let first = ref first in
  List.concat_map
    (fun (rate, reps) ->
      List.init reps (fun i ->
          let r = fresh_step ~seed ~rate ~first:!first ~check:(rate = nominal && i = 0) in
          first := !first + Array.length r.st.recs;
          r))
    plan

let sum_int f xs = List.fold_left (fun a x -> a + f x) 0 xs
let attempted reps = sum_int (fun r -> Array.length r.st.recs + r.resent) reps
let failed reps = sum_int (fun r -> r.st.failed + r.resend_bad) reps

let resend_line reps =
  Printf.sprintf "resent %d requests alone: %d replies differ"
    (sum_int (fun r -> r.resent) reps) (sum_int (fun r -> r.resend_bad) reps)

(* The end-to-end run spends all its time at the nominal rate. Each
   young daemon stalls once, around its 275th request (see README.md);
   at 25 seconds, pooling twenty repeats puts twenty such stalls and
   over 6,000 requests behind the p99. *)
let end_to_end ~seed ~seconds =
  Fun.protect ~finally:clean_up @@ fun () ->
  let n = max 3 (truncate (seconds /. repeat_s)) in
  let reps = run_plan ~seed ~first:(seed * 1_000_000) [ (nominal, n) ] in
  let lat = List.concat_map (fun r -> latencies r.st) reps in
  { attempted = attempted reps;
    failed = failed reps;
    values =
      [ ("setup_s", median (List.map (fun r -> r.setup) reps));
        ("peak_rss_mb", median (List.filter Float.is_finite (List.map (fun r -> r.rss) reps)));
        ("throughput_per_s", median (List.map (fun r -> achieved r.st) reps));
        ("lat_p99_ms", quantile lat 0.99) ];
    notes =
      List.map (fun r -> step_line r.st) reps
      @ [ resend_line reps;
          Printf.sprintf "pooled over %d requests at %.0f req/s: p50 %.3f ms, p99 %.3f ms"
            (List.length lat) nominal (quantile lat 0.5) (quantile lat 0.99) ] }

(* The daemon's own spans from its --trace file: every serve/exec batch
   and every serve/request/<op> admission-to-reply interval, in ms. *)
let read_spans path =
  let ic = open_in path in
  let exec = ref [] and req = ref [] in
  (try
     while true do
       let line = input_line ic in
       if String.length line > 0 then
         match Obs.Json.parse line with
         | Ok j -> (
           match (Obs.Json.member "name" j, Obs.Json.member "dur_ms" j) with
           | Some (Obs.Json.Str "serve/exec"), Some (Obs.Json.Num d) -> exec := d :: !exec
           | Some (Obs.Json.Str name), Some (Obs.Json.Num d)
             when String.starts_with ~prefix:"serve/request/" name ->
             req := d :: !req
           | _ -> ())
         | Error _ -> ()
     done
   with End_of_file -> close_in ic);
  (!exec, !req)

(* Client-side wire codec cost per request: encode, serialize, parse and
   decode one request and its reply. *)
let codec_us ~seed =
  let reqs = List.init 200 (fun i -> request ~seed i) in
  let round_trip i req =
    let s = Obs.Json.to_string (Proto.encode_request { Proto.id = i; deadline_ms = None; req }) in
    ignore (Result.map Proto.decode_request (Obs.Json.parse s));
    let r =
      Obs.Json.to_string
        (Proto.encode_reply { Proto.rid = i; reply = Proto.R_value (-1234.5678901234 -. float_of_int i) })
    in
    ignore (Result.map Proto.decode_reply (Obs.Json.parse r))
  in
  let pass () = List.iteri round_trip reqs in
  1e6 *. median_time ~reps:20 pass /. float_of_int (List.length reqs)

(* A traced nominal repeat: the daemon's spans and stats deltas. *)
type traced = {
  tst : step_result;
  delta : string -> float;
  max_queue : float;
  exec : float list;  (** serve/exec span durations, ms *)
  req : float list;  (** serve/request/<op> span durations, ms *)
}

let traced_step ~seed ~first i =
  let trace = Printf.sprintf "%s/trace-%d-%d.jsonl" run_dir (Unix.getpid ()) i in
  let d, _ = spawn ~trace (first + 1) in
  let tst, s0, s1 =
    Fun.protect ~finally:(fun () -> stop d) (fun () ->
        let s0 = stats d in
        let st = run_step d ~seed ~rate:nominal ~duration:repeat_s ~first in
        (st, s0, stats d))
  in
  let exec, req = read_spans trace in
  { tst; delta = (fun k -> stat s1 k -. stat s0 k); max_queue = stat s1 "max_queue"; exec; req }

(* Untraced and traced nominal repeats alternate, on the same requests.
   Client-side latencies and the resend check come from the untraced
   repeats, the daemon's spans and stats from the traced ones; then the
   rest of the ladder runs untraced. *)
let per_layer ~seed ~seconds =
  Fun.protect ~finally:clean_up @@ fun () ->
  let pairs = max 1 (truncate (0.6 *. seconds /. (2. *. repeat_s))) in
  let runs =
    List.init pairs (fun i ->
        let first = (seed * 1_000_000) + (i * 10_000) in
        let u = fresh_step ~seed ~rate:nominal ~first ~check:true in
        (u, traced_step ~seed ~first i))
  in
  let untraced = List.map fst runs and traced = List.map snd runs in
  let rungs = run_plan ~seed ~first:((seed * 1_000_000) + 500_000) ladder in
  let top = List.fold_left (fun a r -> Float.max a r.st.rate) 0. rungs in
  let max_rate =
    List.fold_left
      (fun acc r -> if passes r.st then Float.max acc r.st.rate else acc)
      0. (untraced @ rungs)
  in
  let delta k = sum (List.map (fun t -> t.delta k) traced) in
  let exec = List.concat_map (fun t -> t.exec) traced in
  let req = List.concat_map (fun t -> t.req) traced in
  let lat ?op reps = List.concat_map (fun r -> latencies ?op r.st) reps in
  let traced_lat = List.concat_map (fun t -> latencies t.tst) traced in
  let wall = sum (List.map (fun t -> span t.tst) traced) in
  let lags =
    List.concat_map
      (fun t -> Array.to_list (Array.map (fun r -> 1000. *. (r.sent -. r.due)) t.tst.recs))
      traced
  in
  let vec = delta "vectorized_rows" and scalar = delta "scalar_rows" in
  let values =
    [ ( "serve.capacity_rps",
        median (List.map (fun r -> achieved r.st) (List.filter (fun r -> r.st.rate = top) rungs)) );
      ("serve.max_rate_rps", max_rate);
      ("serve.codec_us_per_req", codec_us ~seed);
      ("serve.lat_p50_ms", median (lat untraced));
      ("serve.daemon_request_ms_p50", median req);
      ("serve.score.lat_p50_ms", median (lat ~op:"score" untraced));
      ("serve.elbo.lat_p50_ms", median (lat ~op:"elbo" untraced));
      ("serve.exec_ms_per_batch", mean exec);
      ("serve.exec_busy_frac", sum exec /. 1000. /. wall);
      ("serve.coalesce_ratio", delta "rows" /. delta "batches");
      ("serve.vectorized_rows_frac", vec /. (vec +. scalar));
      ("serve.scalar_rows_per_kreq", 1000. *. scalar /. delta "rows");
      ("serve.max_queue", List.fold_left (fun a t -> Float.max a t.max_queue) 0. traced);
      ( "serve.inflight_max",
        float_of_int (List.fold_left (fun a t -> max a t.tst.inflight_max) 0 traced) );
      ("serve.send_lag_ms_p99", quantile lags 0.99);
      ("trace_overhead_frac", (median traced_lat /. median (lat untraced)) -. 1.) ]
  in
  let traced_sent = sum_int (fun t -> Array.length t.tst.recs) traced in
  { attempted = attempted (untraced @ rungs) + traced_sent;
    failed = failed (untraced @ rungs) + sum_int (fun t -> t.tst.failed) traced;
    values;
    notes =
      List.map (fun r -> "untraced " ^ step_line r.st) (untraced @ rungs)
      @ List.map (fun t -> "traced   " ^ step_line t.tst) traced
      @ [ Printf.sprintf "daemon spans: %d exec batches, %d requests" (List.length exec)
            (List.length req);
          resend_line untraced;
          Printf.sprintf "share of request latency inside the daemon: %.1f%%"
            (100. *. mean req /. mean traced_lat) ] }
