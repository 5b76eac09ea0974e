(* The two training workloads, vae_train and air_enum.

   The untraced run calls the program's own entry points (Vae.train,
   Air.train_epoch) and times whole rounds. The traced run replays the
   same rounds through a copy of the Train driver's step, written here
   against the public functions of each layer, with a clock read around
   every layer call; its per-step objectives must equal the untraced
   run's bit for bit, which both proves the copy faithful and catches
   any nondeterministic kernel or reduction. *)

open Common

(* One layer-attributed step: seconds spent in each layer call. *)
type step_times = {
  mutable data : float;  (** per-step data synthesis *)
  mutable forward : float;  (** Gen/ADEV interpretation + tape record *)
  mutable backward : float;  (** Ad.backward *)
  mutable grads : float;  (** reading gradients off the frame *)
  mutable guard : float;  (** Guard snapshot, scan and policy *)
  mutable optim : float;  (** Optim.step *)
}

let zero_times () =
  { data = 0.; forward = 0.; backward = 0.; grads = 0.; guard = 0.; optim = 0. }

(* Counters summed over the traced rounds. *)
type traced = {
  t : step_times;
  mutable wall : float;  (** wall time of the traced rounds *)
  mutable steps : int;
  mutable nodes : int;  (** tape nodes created *)
  mutable peak_live : int;  (** largest per-step live-tape high-water mark *)
  mutable minor_w : float;
  mutable major_w : float;
}

(* A copy of Train's guarded single-shard step. [build frame key_step]
   returns the surrogate and accumulates its own forward time into
   [t]; everything else is timed here. *)
let traced_step ~t ~guard ~store ~optim ~step ~key ~build =
  let clock field f =
    let dt, r = timed f in
    field dt;
    r
  in
  clock (fun d -> t.guard <- t.guard +. d) (fun () ->
      if Guard.due_snapshot guard ~step then
        Guard.take_snapshot guard ~step ~store ~optim);
  let key_step = Prng.fold_in (Guard.active_key guard key) step in
  Ad.reset_live_stats ();
  let frame = Store.Frame.make store in
  let surrogate = build frame key_step in
  clock (fun d -> t.backward <- t.backward +. d) (fun () -> Ad.backward surrogate);
  let objective = Tensor.to_scalar (Ad.value surrogate) in
  let grads = clock (fun d -> t.grads <- t.grads +. d) (fun () -> Store.Frame.grads frame) in
  let verdict =
    clock (fun d -> t.guard <- t.guard +. d) (fun () ->
        let anomalies = Guard.scan ~step ~objective ~grads in
        Guard.observe guard ~step ~store ~optim anomalies)
  in
  (match verdict with
  | Guard.Proceed | Guard.Skip ->
    clock (fun d -> t.optim <- t.optim +. d) (fun () ->
        Optim.step ?clip_norm:(Guard.clip_norm guard) optim Optim.Ascend store grads)
  | Guard.Restart_from _ -> failwith "traced step: unexpected rollback");
  objective

(* One traced round, its tape and heap counters added to [acc]. *)
let traced_round acc run =
  let gc0 = Gc.quick_stat () and nodes0 = Ad.node_count () in
  let on_step () = acc.peak_live <- max acc.peak_live (Ad.peak_live_nodes ()) in
  let wall, objectives = timed (fun () -> run acc.t on_step) in
  let gc1 = Gc.quick_stat () in
  acc.wall <- acc.wall +. wall;
  acc.steps <- acc.steps + List.length objectives;
  acc.nodes <- acc.nodes + (Ad.node_count () - nodes0);
  acc.minor_w <- acc.minor_w +. (gc1.Gc.minor_words -. gc0.Gc.minor_words);
  acc.major_w <- acc.major_w +. (gc1.Gc.major_words -. gc0.Gc.major_words);
  objectives

(* Rounds [0, 1, ..] of [run] until [seconds] have passed (at least
   [min_rounds]); returns what each round returned, in order. *)
let rounds ~seconds ~min_rounds run =
  let t_end = now () +. seconds in
  let rec go r acc =
    if r >= min_rounds && now () >= t_end then List.rev acc
    else go (r + 1) (run r :: acc)
  in
  go 0 []

let non_finite objs = List.length (List.filter (fun x -> not (Float.is_finite x)) objs)

(* Steps whose objective differs (or is missing) between two runs. *)
let mismatched a b =
  let rec go a b n =
    match (a, b) with
    | [], [] -> n
    | x :: a, y :: b -> go a b (if same_bits x y then n else n + 1)
    | rest, [] | [], rest -> n + List.length rest
  in
  go a b 0

(* ------------------------------------------------------------------ *)
(* Workload parameters *)

let vae_batch = 256
let vae_steps = 8 (* Adam steps per Vae.train round *)
let air_batch = 16
let air_scenes = 16 (* scenes drawn at set-up: one epoch is one step *)

let vae_key seed round = Prng.fold_in (Prng.key seed) round
let air_key seed epoch = Prng.fold_in (Prng.key seed) (1000 + epoch)

(* What a training run builds before step 0. vae_train draws no data
   at set-up (every step synthesizes its own batch). *)
let vae_setup seed =
  let store = Store.create () in
  Vae.register store (vae_key seed 0);
  ignore (Optim.adam ~lr:1e-3 ());
  store

let air_setup seed =
  let store = Store.create () in
  Air.register store (Prng.fold_in (Prng.key seed) 1);
  let images, _ = Data.air_batch (Prng.fold_in (Prng.key seed) 2) air_scenes in
  (store, images, Optim.adam ~lr:1e-3 (), Air.make_baselines ())

(* ------------------------------------------------------------------ *)
(* vae_train *)

let vae_round seed r =
  let _, reports = Vae.train ~steps:vae_steps ~batch:vae_batch (vae_key seed r) in
  List.map (fun rep -> rep.Train.objective) reports

(* The traced copy of one Vae.train round: same registration key, same
   optimizer, same per-step batch key, same surrogate construction as
   Train.fit with one sample. *)
let vae_traced_round seed r t on_step =
  let key = vae_key seed r in
  let store = Store.create () in
  Vae.register store key;
  let optim = Optim.adam ~lr:1e-3 () in
  let guard = Guard.create () in
  List.init vae_steps (fun step ->
      let d0 = now () in
      let images, _ = Data.digit_batch (Prng.fold_in key (10000 + step)) vae_batch in
      t.data <- t.data +. (now () -. d0);
      let build frame key_step =
        let f0 = now () in
        let s =
          Adev.expectation_mean ~samples:1 (Vae.elbo_per_datum frame images) key_step
        in
        t.forward <- t.forward +. (now () -. f0);
        s
      in
      let obj = traced_step ~t ~guard ~store ~optim ~step ~key ~build in
      on_step ();
      obj)

(* Median seconds of [a] minus median seconds of [b], timed in ABBA
   order so that neither side always pays the other's garbage. *)
let ab_delta ~reps a b =
  a ();
  b ();
  let pairs =
    List.init reps (fun i ->
        if i mod 2 = 0 then
          let ta = fst (timed a) in
          (ta, fst (timed b))
        else
          let tb = fst (timed b) in
          (fst (timed a), tb))
  in
  median (List.map fst pairs) -. median (List.map snd pairs)

(* Table 1: the automated estimator against the hand-coded one on the
   same batch and noise key. *)
let vae_overhead_ms seed ~reps =
  let store = vae_setup seed in
  let images, _ = Data.digit_batch (Prng.fold_in (Prng.key seed) 7) vae_batch in
  let key = Prng.fold_in (Prng.key seed) 8 in
  let grad surrogate_of () =
    let frame = Store.Frame.make store in
    let s = surrogate_of frame in
    Ad.backward s;
    ignore (Store.Frame.grads frame)
  in
  let auto = grad (fun fr -> Adev.expectation (Vae.elbo_per_datum fr images) key) in
  let hand = grad (fun fr -> Vae_hand.elbo_surrogate fr images key) in
  1000. *. ab_delta ~reps auto hand

(* ------------------------------------------------------------------ *)
(* air_enum *)

let air_epoch (store, images, optim, baselines) seed e =
  Air.train_epoch ~pres:Air.EN ~pos:Air.EN ~store ~optim ~baselines
    ~objective:Air.Elbo ~images ~batch:air_batch (air_key seed e)

(* The traced copy of one Air.train_epoch: Train.fit_batch's surrogate
   (each image its own key, averaged) under a fresh guard. Returns the
   per-step objectives; the epoch mean is formed as train_epoch does. *)
let air_traced_epoch (store, images, optim, baselines) seed e t on_step =
  let key = air_key seed e in
  let guard = Guard.create () in
  let nsteps = (Tensor.shape images).(0) / air_batch in
  List.init nsteps (fun step ->
      let build frame key_step =
        (* Minibatch selection runs inside train_epoch's objective
           builder, so it counts as forward; AIR synthesizes no data
           per step. *)
        let f0 = now () in
        let minibatch =
          Tensor.take_rows images (List.init air_batch (fun i -> (step * air_batch) + i))
        in
        let objs =
          Air.batch_objectives ~pres:Air.EN ~pos:Air.EN ~baselines Air.Elbo frame
            minibatch
        in
        let n = max 1 (List.length objs) in
        let surrogates =
          List.mapi (fun i obj -> Adev.expectation obj (Prng.fold_in key_step i)) objs
        in
        let s = Ad.scale (1. /. float_of_int n) (Ad.add_list surrogates) in
        t.forward <- t.forward +. (now () -. f0);
        s
      in
      let obj = traced_step ~t ~guard ~store ~optim ~step ~key ~build in
      on_step ();
      obj)

let epoch_mean objs =
  List.fold_left ( +. ) 0. objs /. float_of_int (max 1 (List.length objs))

(* Table 2: per image, the automated ENUM estimator against the
   monolithic engine's Enum_discrete on the same image and key. *)
let air_overhead_ms seed ~reps =
  let store, images, _, baselines = air_setup seed in
  let sample = List.init 8 (fun i -> Tensor.slice0 images i) in
  let key = Prng.fold_in (Prng.key seed) 9 in
  let per_image surrogate_of () =
    List.iteri
      (fun i image ->
        let frame = Store.Frame.make store in
        let s = surrogate_of frame image (Prng.fold_in key i) in
        Ad.backward s;
        ignore (Store.Frame.grads frame))
      sample
  in
  let model fr im = Air.model fr im
  and guide fr im = Air.guide ~pres:Air.EN ~pos:Air.EN ~baselines fr im in
  let auto =
    per_image (fun fr im k ->
        Adev.expectation (Objectives.elbo ~model:(model fr im) ~guide:(guide fr im)) k)
  in
  let mono =
    per_image (fun fr im k ->
        Svi.elbo_surrogate ~model:(model fr im) ~guide:(guide fr im) Svi.Enum_discrete k)
  in
  1000. *. ab_delta ~reps auto mono /. float_of_int (List.length sample)

(* ------------------------------------------------------------------ *)
(* Results *)

type spec = {
  setup : unit -> unit;  (** what a run builds before step 0 *)
  images_per_step : int;
  steps_per_round : int;
  untraced : unit -> int -> float list;
      (** [untraced () r] runs round [r] through the program's entry
          point, returning its objectives at [fingerprint]'s grain *)
  traced : unit -> int -> step_times -> (unit -> unit) -> float list;
      (** the traced copy of round [r], returning per-step objectives *)
  fingerprint : float list -> float list;
}

let vae_spec seed =
  { setup = (fun () -> ignore (vae_setup seed));
    images_per_step = vae_batch;
    steps_per_round = vae_steps;
    untraced = (fun () -> vae_round seed);
    traced = (fun () -> vae_traced_round seed);
    fingerprint = Fun.id }

(* AIR rounds are consecutive epochs of one training run, so each run
   owns its store. *)
let air_spec seed =
  let steps = air_scenes / air_batch in
  let rec epoch_means objs =
    match List.filteri (fun i _ -> i < steps) objs with
    | [] -> []
    | c -> epoch_mean c :: epoch_means (List.filteri (fun i _ -> i >= steps) objs)
  in
  { setup = (fun () -> ignore (air_setup seed));
    images_per_step = air_batch;
    steps_per_round = steps;
    untraced =
      (fun () ->
        let st = air_setup seed in
        fun e -> [ fst (air_epoch st seed e) ]);
    traced = (fun () -> air_traced_epoch (air_setup seed) seed);
    fingerprint = epoch_means }

(* One untimed round on throwaway state: lazy initialisation and the
   first heap growth happen before timing starts. *)
let warm_up spec = ignore (spec.untraced () (-1))

(* Set-up runs once before every round, so its samples, like the
   rounds', spread over the whole run. *)
let end_to_end spec ~seconds =
  warm_up spec;
  let run = spec.untraced () in
  let rs =
    rounds ~seconds ~min_rounds:3 (fun r ->
        let setup = fst (timed spec.setup) in
        (setup, timed (fun () -> run r)))
  in
  let setups = List.map fst rs and rs = List.map snd rs in
  let objs = List.concat_map snd rs in
  let per_step_ms =
    List.map (fun (dt, _) -> 1000. *. dt /. float_of_int spec.steps_per_round) rs
  in
  let n_rounds = List.length rs in
  let failed = non_finite objs in
  let q = quantile per_step_ms in
  { attempted = n_rounds * spec.steps_per_round;
    failed;
    values =
      [ ("setup_s", median setups);
        ("peak_rss_mb", peak_rss_mb None);
        ("throughput_per_s", 1000. *. float_of_int spec.images_per_step /. q 0.9);
        ("lat_p99_ms", q 0.99) ];
    notes =
      [ Printf.sprintf "rounds %d x %d steps, %d non-finite objectives" n_rounds
          spec.steps_per_round failed;
        Printf.sprintf "ms per step: p10 %.3f  p25 %.3f  p50 %.3f  p75 %.3f  p90 %.3f  p99 %.3f"
          (q 0.1) (q 0.25) (q 0.5) (q 0.75) (q 0.9) (q 0.99);
        Printf.sprintf "setup ms: p10 %.4f p50 %.4f p90 %.4f" (1000. *. quantile setups 0.1)
          (1000. *. quantile setups 0.5) (1000. *. quantile setups 0.9) ] }

(* Untraced and traced rounds alternate, on separate but identically
   initialised state, so drift in the machine's speed lands on both
   sides of trace_overhead_frac. *)
let per_layer ~kind spec seed ~seconds =
  warm_up spec;
  let run_u = spec.untraced () and run_t = spec.traced () in
  let tr =
    { t = zero_times (); wall = 0.; steps = 0; nodes = 0; peak_live = 0;
      minor_w = 0.; major_w = 0. }
  in
  let rs =
    rounds ~seconds:(seconds /. 2.) ~min_rounds:2 (fun r ->
        let u = timed (fun () -> run_u r) in
        (u, traced_round tr (run_t r)))
  in
  let k = List.length rs in
  let untraced_objs = List.concat_map (fun ((_, o), _) -> o) rs in
  let traced_objs = List.concat_map snd rs in
  let failed =
    non_finite untraced_objs + non_finite traced_objs
    + mismatched untraced_objs (spec.fingerprint traced_objs)
  in
  let untraced_s = sum (List.map (fun ((dt, _), _) -> dt) rs) in
  let t = tr.t in
  let steps = float_of_int tr.steps in
  let images = steps *. float_of_int spec.images_per_step in
  let ms x = 1000. *. x in
  let per_step x = x /. steps and per_image x = x /. images in
  let frac x = x /. tr.wall in
  let attributed = t.data +. t.forward +. t.backward +. t.grads +. t.guard +. t.optim in
  let layer =
    [ ("data.synth_ms_per_step", ms (per_step t.data));
      ("vi.forward_ms_per_step", ms (per_step t.forward));
      ("vi.forward_ms_per_image", ms (per_image t.forward));
      ("ad.backward_ms_per_step", ms (per_step t.backward));
      ("ad.backward_ms_per_image", ms (per_image t.backward));
      ("ad.tape_nodes_per_step", per_step (float_of_int tr.nodes));
      ("ad.tape_nodes_per_image", per_image (float_of_int tr.nodes));
      ("ad.peak_live_nodes", float_of_int tr.peak_live);
      ("vi.grads_ms_per_step", ms (per_step t.grads));
      ("vi.optim_ms_per_step", ms (per_step t.optim));
      ("vi.guard_ms_per_step", ms (per_step t.guard));
      ("vi.unattributed_frac", 1. -. frac attributed);
      ("gc.minor_kw_per_step", per_step tr.minor_w /. 1000.);
      ("gc.major_kw_per_step", per_step tr.major_w /. 1000.);
      ("gc.major_kw_per_image", per_image tr.major_w /. 1000.);
      ("trace_overhead_frac", (tr.wall /. untraced_s) -. 1.) ]
  in
  let replays =
    match kind with
    | `Vae ->
      let g = Kernels.replay ~reps:30 (Kernels.vae_gemms ~batch:vae_batch (vae_key seed 5)) in
      [ ("tensor.gemm_ms_per_step", g.Kernels.ms);
        ("tensor.gemm_mflop_per_step", g.Kernels.mflop);
        ("tensor.gemm_mb_per_step", g.Kernels.mb);
        ("tensor.gemm_gflops", g.Kernels.mflop /. g.Kernels.ms);
        ("gen_adev.overhead_ms_per_step", vae_overhead_ms seed ~reps:15) ]
    | `Air ->
      let r = Kernels.replay ~reps:200 (Kernels.air_small_ops (air_key seed 5)) in
      [ ("tensor.small_op_us", 1000. *. r.Kernels.ms /. float_of_int r.Kernels.calls);
        ("tensor.small_op_ms_per_image", r.Kernels.ms);
        ("tensor.small_op_kflop_per_image", 1000. *. r.Kernels.mflop);
        ("tensor.small_op_kb_per_image", 1000. *. r.Kernels.mb);
        ("gen_adev.overhead_ms_per_image", air_overhead_ms seed ~reps:3) ]
  in
  let notes =
    [ Printf.sprintf "%d rounds: traced %d steps in %.3f s, untraced in %.3f s" k
        tr.steps tr.wall untraced_s;
      Printf.sprintf
        "layer shares of the traced step: data %.1f%%  forward %.1f%%  \
         backward %.1f%%  grads %.1f%%  guard %.1f%%  optim %.1f%%  \
         unattributed %.1f%%"
        (100. *. frac t.data) (100. *. frac t.forward) (100. *. frac t.backward)
        (100. *. frac t.grads) (100. *. frac t.guard) (100. *. frac t.optim)
        (100. *. (1. -. frac attributed));
      Printf.sprintf "objective checks: %d failed" failed ]
  in
  { attempted = k * spec.steps_per_round; failed; values = layer @ replays; notes }
