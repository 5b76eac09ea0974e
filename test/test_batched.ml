(* The batched execution engine: rank-lifted primitives (Dist.batched),
   batched ADEV sites, the plate lowering, the vectorized whole-program
   evaluators, and the tensor/AD kernels they rest on (logsumexp_axis /
   sum_axis).

   The load-bearing invariant checked throughout: batched row [i] is
   bit-for-bit the scalar draw under [Prng.fold_in key i], so
   batchability is a performance property, never a semantic one. *)

let k0 = Prng.key 4242
let primal a = Tensor.to_scalar (Ad.value a)

(* Extract an ADEV computation's value through the continuation. *)
let run_adev ?(key = k0) m =
  let result = ref None in
  ignore
    (Adev.run m key (fun r ->
         result := Some r;
         Ad.scalar 0.));
  Option.get !result

let check_close name ~tol expected got =
  Alcotest.(check bool)
    (Printf.sprintf "%s: |%.10g - %.10g| <= %g" name expected got tol)
    true
    (Float.abs (expected -. got) <= tol)

(* Strip the batched payload: forces every sequential fallback path. *)
let strip d = { d with Dist.batched = None }

(* ------------------------------------------------------------------ *)
(* Dist layer: batched samplers and densities vs. stacked scalar ones  *)

(* Real-carrier scalar primitives with batched payloads, parameterized
   by two floats in (0.3, 2.5) so every family accepts them. *)
let scalar_families (a, b) =
  let a' = Ad.scalar a and b' = Ad.scalar b in
  [ ("normal", Dist.normal_reparam a' b');
    ("normal_reinforce", Dist.normal_reinforce a' b');
    ("uniform", Dist.uniform (-.a) b);
    ("beta", Dist.beta_reinforce a' b');
    ("gamma", Dist.gamma_reinforce a');
    ("laplace", Dist.laplace_reparam a' b');
    ("logistic", Dist.logistic_reparam a' b');
    ("lognormal", Dist.lognormal_reparam (Ad.scalar (a -. 1.)) b');
    ("exponential", Dist.exponential_reparam a');
    ("student_t", Dist.student_t_reinforce (Ad.scalar (a +. 2.)));
    ("scaled_beta", Dist.scaled_beta_reinforce ~lo:(-1.) ~hi:2. a' b') ]

let prop_sample_n_rows_exact =
  QCheck.Test.make ~name:"sample_n row i = scalar draw under fold_in key i"
    ~count:40
    QCheck.(pair small_int (pair (float_range 0.3 2.5) (float_range 0.3 2.5)))
    (fun (seed, params) ->
      let key = Prng.key (seed + 1) in
      let n = 1 + (seed mod 7) in
      List.for_all
        (fun (_name, d) ->
          let stacked = Dist.sample_n d key n in
          List.for_all
            (fun i ->
              let row = primal (Ad.slice0 stacked i) in
              let scalar = primal (d.Dist.sample (Prng.fold_in key i)) in
              Float.equal row scalar)
            (List.init n Fun.id))
        (scalar_families params))

let prop_batched_density_matches_stacked =
  QCheck.Test.make
    ~name:"log_density_batched = stacked scalar log densities" ~count:40
    QCheck.(pair small_int (pair (float_range 0.3 2.5) (float_range 0.3 2.5)))
    (fun (seed, params) ->
      let key = Prng.key (seed + 101) in
      let n = 1 + (seed mod 7) in
      List.for_all
        (fun (name, d) ->
          let rows = List.init n (fun i -> d.Dist.sample (Prng.fold_in key i)) in
          let stacked = Ad.stack0 rows in
          let lp = Dist.log_density_batched d stacked in
          Ad.shape lp = [| n |]
          && List.for_all
               (fun i ->
                 let want = primal (d.Dist.log_density (List.nth rows i)) in
                 let got = Tensor.get_flat (Ad.value lp) i in
                 Float.abs (want -. got) <= 1e-9 *. (1. +. Float.abs want)
                 || failwith (Printf.sprintf "%s row %d: %g vs %g" name i want got))
               (List.init n Fun.id))
        (scalar_families params))

let test_mv_normal_diag_batched () =
  let dim = 3 and n = 5 in
  let mean = Ad.const (Tensor.of_array [| dim |] [| 0.2; -0.7; 1.1 |]) in
  let std = Ad.const (Tensor.of_array [| dim |] [| 0.5; 1.3; 0.9 |]) in
  let d = Dist.mv_normal_diag_reparam mean std in
  let stacked = Dist.sample_n d k0 n in
  Alcotest.(check (array int)) "stacked shape" [| n; dim |] (Ad.shape stacked);
  let lp = Dist.log_density_batched d stacked in
  Alcotest.(check (array int)) "density shape" [| n |] (Ad.shape lp);
  for i = 0 to n - 1 do
    let row = Ad.slice0 stacked i in
    let want = primal (d.Dist.log_density row) in
    check_close (Printf.sprintf "mv row %d" i) ~tol:1e-9 want
      (Tensor.get_flat (Ad.value lp) i);
    let scalar = d.Dist.sample (Prng.fold_in k0 i) in
    Alcotest.(check (array (float 0.)))
      (Printf.sprintf "mv row %d draw" i)
      (Tensor.to_array (Ad.value scalar))
      (Tensor.to_array (Ad.value row))
  done

let test_mv_normal_diag_data_indexed () =
  (* Rank-2 parameters with leading dim n: row i uses its own rows. *)
  let n = 4 and dim = 2 in
  let mean =
    Ad.const
      (Tensor.init [| n; dim |] (fun ix ->
           float_of_int ((ix.(0) * 2) + ix.(1)) /. 3.))
  in
  let std = Ad.const (Tensor.full [| n; dim |] 0.7) in
  let d = Dist.mv_normal_diag_reparam mean std in
  let stacked = Dist.sample_n d k0 n in
  let lp = Dist.log_density_batched d stacked in
  for i = 0 to n - 1 do
    let row_d =
      Dist.mv_normal_diag_reparam (Ad.slice0 mean i) (Ad.slice0 std i)
    in
    let scalar = row_d.Dist.sample (Prng.fold_in k0 i) in
    Alcotest.(check (array (float 0.)))
      (Printf.sprintf "data-indexed row %d draw" i)
      (Tensor.to_array (Ad.value scalar))
      (Tensor.to_array (Ad.value (Ad.slice0 stacked i)));
    check_close
      (Printf.sprintf "data-indexed row %d density" i)
      ~tol:1e-9
      (primal (row_d.Dist.log_density (Ad.slice0 stacked i)))
      (Tensor.get_flat (Ad.value lp) i)
  done

let test_iid_joint_density () =
  let n = 6 in
  let d1 = Dist.normal_reparam (Ad.scalar 0.4) (Ad.scalar 1.1) in
  let d = Dist.iid n d1 in
  let x = d.Dist.sample k0 in
  Alcotest.(check (array int)) "iid sample shape" [| n |] (Ad.shape x);
  let want =
    List.fold_left ( +. ) 0.
      (List.init n (fun i -> primal (d1.Dist.log_density (Ad.slice0 x i))))
  in
  check_close "iid joint = sum of rows" ~tol:1e-9 want
    (primal (d.Dist.log_density x));
  for i = 0 to n - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "iid row %d" i)
      true
      (Float.equal
         (Tensor.get_flat (Ad.value x) i)
         (primal (d1.Dist.sample (Prng.fold_in k0 i))))
  done

(* ------------------------------------------------------------------ *)
(* Tensor / AD kernels: logsumexp_axis and sum_axis                    *)

let fd_grad f t =
  let eps = 1e-5 in
  let arr = Tensor.to_array t in
  Array.mapi
    (fun i _ ->
      let bump d =
        let a = Array.copy arr in
        a.(i) <- a.(i) +. d;
        f (Tensor.of_array (Tensor.shape t) a)
      in
      (bump eps -. bump (-.eps)) /. (2. *. eps))
    arr

let ad_grad f t =
  let leaf = Ad.param t in
  let out = f leaf in
  Ad.backward out;
  Tensor.to_array (Ad.grad leaf)

let grad_check name f_t f_ad t =
  let fd = fd_grad f_t t in
  let ad = ad_grad f_ad t in
  Array.iteri
    (fun i want ->
      check_close (Printf.sprintf "%s dcell %d" name i) ~tol:1e-4 want ad.(i))
    fd

let test_logsumexp_axis_values () =
  let t = Tensor.of_array [| 2; 3 |] [| 0.1; -1.2; 2.3; 0.7; 0.4; -0.9 |] in
  let l0 = Tensor.logsumexp_axis 0 t in
  Alcotest.(check (array int)) "axis0 shape" [| 3 |] (Tensor.shape l0);
  for j = 0 to 2 do
    let want =
      Float.log
        (Float.exp (Tensor.get_flat t j)
        +. Float.exp (Tensor.get_flat t (3 + j)))
    in
    check_close (Printf.sprintf "lse0 %d" j) ~tol:1e-12 want
      (Tensor.get_flat l0 j)
  done;
  let l1 = Tensor.logsumexp_axis 1 t in
  Alcotest.(check (array int)) "axis1 shape" [| 2 |] (Tensor.shape l1);
  (* Stability: huge magnitudes must not overflow. *)
  let big = Tensor.of_array [| 2 |] [| 1000.; 1000.5 |] in
  let l = Tensor.get_flat (Tensor.logsumexp_axis 0 big) 0 in
  check_close "stable" ~tol:1e-9
    (1000.5 +. Float.log (1. +. Float.exp (-0.5)))
    l;
  (* All -inf stays -inf rather than NaN. *)
  let ninf = Tensor.full [| 3 |] Float.neg_infinity in
  Alcotest.(check bool) "neg_inf preserved" true
    (Tensor.get_flat (Tensor.logsumexp_axis 0 ninf) 0 = Float.neg_infinity)

let test_axis_reductions_grad () =
  let t = Tensor.of_array [| 2; 3 |] [| 0.1; -1.2; 2.3; 0.7; 0.4; -0.9 |] in
  List.iter
    (fun ax ->
      grad_check
        (Printf.sprintf "logsumexp_axis %d" ax)
        (fun t -> Tensor.sum (Tensor.logsumexp_axis ax t))
        (fun a -> Ad.sum (Ad.logsumexp_axis ax a))
        t;
      grad_check
        (Printf.sprintf "sum_axis %d (weighted)" ax)
        (fun t ->
          let s = Tensor.sum_axis ax t in
          let n = Array.fold_left ( * ) 1 (Tensor.shape s) in
          let acc = ref 0. in
          for i = 0 to n - 1 do
            acc := !acc +. (float_of_int (i + 1) *. Tensor.get_flat s i)
          done;
          !acc)
        (fun a ->
          let s = Ad.sum_axis ax a in
          let n = Array.fold_left ( * ) 1 (Ad.shape s) in
          let w =
            Ad.const (Tensor.init [| n |] (fun ix -> float_of_int (ix.(0) + 1)))
          in
          Ad.sum (Ad.mul w s))
        t)
    [ 0; 1 ]

let test_bernoulli_logits_scores_fused () =
  (* The fused kernel must agree with the compositional elementwise
     form under both broadcast patterns: stacked x / stacked logits,
     and shared (tail-only) x against stacked logits. *)
  let compositional l x =
    let open Ad.O in
    Ad.neg
      ((x * Ad.softplus (Ad.neg l)) + ((Ad.scalar 1. - x) * Ad.softplus l))
  in
  let logits =
    Ad.const
      (Tensor.of_array [| 3; 4 |]
         [| -2.3; 0.4; 1.7; -0.2; 35.; -31.; 0.; 5.5; -0.7; 2.2; -4.1; 0.9 |])
  in
  let x_full =
    Tensor.of_array [| 3; 4 |]
      [| 1.; 0.; 1.; 1.; 0.; 1.; 0.; 1.; 1.; 1.; 0.; 0. |]
  in
  let x_row = Tensor.of_array [| 4 |] [| 1.; 0.; 0.; 1. |] in
  List.iter
    (fun (tag, x) ->
      let fused = Tensor.bernoulli_logits_scores ~logits:(Ad.value logits) ~x in
      Alcotest.(check (array int)) (tag ^ " shape") [| 3 |] (Tensor.shape fused);
      let reference =
        Ad.value
          (Ad.sum_axis 1 (compositional logits (Ad.const x)))
      in
      for i = 0 to 2 do
        check_close
          (Printf.sprintf "%s row %d" tag i)
          ~tol:1e-9
          (Tensor.get_flat reference i)
          (Tensor.get_flat fused i)
      done)
    [ ("full x", x_full); ("shared x", x_row) ];
  (* Gradient of the fused op w.r.t. logits against finite differences
     (through a weighted row sum so every row's cotangent differs). *)
  grad_check "bernoulli_logits_scores"
    (fun l ->
      let s = Tensor.bernoulli_logits_scores ~logits:l ~x:x_full in
      (1. *. Tensor.get_flat s 0)
      +. (2. *. Tensor.get_flat s 1)
      +. (3. *. Tensor.get_flat s 2))
    (fun l ->
      let s = Ad.bernoulli_logits_scores ~x:x_full l in
      let w = Ad.const (Tensor.of_array [| 3 |] [| 1.; 2.; 3. |]) in
      Ad.sum (Ad.mul w s))
    (Tensor.of_array [| 3; 4 |]
       [| -2.3; 0.4; 1.7; -0.2; 3.5; -3.1; 0.; 5.5; -0.7; 2.2; -4.1; 0.9 |])

(* ------------------------------------------------------------------ *)
(* Adev layer: batched sites, tail-recursive replicate                 *)

let test_replicate_100k_primal () =
  (* Construction and the primal run are tail-recursive / CPS tail
     calls: 100k particles must not overflow the stack. *)
  let d = Dist.normal_reparam (Ad.scalar 0.) (Ad.scalar 1.) in
  let m =
    Adev.map
      (fun xs -> Ad.scalar (float_of_int (List.length xs)))
      (Adev.replicate 100_000 (Adev.sample d))
  in
  let v = Adev.estimate m k0 in
  Alcotest.(check (float 0.)) "100k particles collected" 100_000. v

let test_replicate_key_stream_unchanged () =
  (* The tail-recursive replicate must build the exact nested-bind term
     the historical direct recursion built: same splits, same element
     order. *)
  let rec replicate_ref n m =
    if n <= 0 then Adev.return []
    else
      Adev.bind m (fun x ->
          Adev.bind (replicate_ref (n - 1) m) (fun rest ->
              Adev.return (x :: rest)))
  in
  let d = Dist.normal_reparam (Ad.scalar 0.3) (Ad.scalar 1.4) in
  let sum xs = Ad.add_list xs in
  let a = Adev.estimate (Adev.map sum (Adev.replicate 17 (Adev.sample d))) k0 in
  let b = Adev.estimate (Adev.map sum (replicate_ref 17 (Adev.sample d))) k0 in
  Alcotest.(check (float 0.)) "same key stream" b a

let test_sample_batched_rows_and_refusal () =
  let d = Dist.normal_reparam (Ad.scalar 0.2) (Ad.scalar 0.9) in
  let n = 8 in
  let stacked = run_adev (Adev.sample_batched ~n d) in
  Alcotest.(check (array int)) "batched site shape" [| n |] (Ad.shape stacked);
  let r = match d.Dist.reparam with Some r -> r | None -> assert false in
  for i = 0 to n - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "site row %d" i)
      true
      (Float.equal
         (Tensor.get_flat (Ad.value stacked) i)
         (primal (r (Prng.fold_in k0 i))))
  done;
  (* ENUM cannot collapse to a tensor op: the site must refuse with
     Not_batchable before sampling, and or_else must recover. *)
  let enum = Dist.flip_enum (Ad.scalar 0.4) in
  let refused =
    try
      ignore (run_adev (Adev.sample_batched ~n:4 enum));
      false
    with Dist.Not_batchable _ -> true
  in
  Alcotest.(check bool) "enum refuses" true refused;
  let recovered =
    Adev.estimate
      (Adev.or_else
         (Adev.map (fun _ -> Ad.scalar 1.) (Adev.sample_batched ~n:4 enum))
         (Adev.return (Ad.scalar 2.)))
      k0
  in
  Alcotest.(check (float 0.)) "or_else recovers" 2. recovered

(* ------------------------------------------------------------------ *)
(* Gen layer: the plate lowering                                       *)

let plate_prog d n = Gen.plate ~n (fun _ -> Gen.sample d "x")

let test_plate_batched_trace_form () =
  let d = Dist.normal_reparam (Ad.scalar 0.1) (Ad.scalar 1.2) in
  let n = 5 in
  let zs, trace, _logw = run_adev (Gen.simulate (plate_prog d n)) in
  Alcotest.(check int) "array length" n (Array.length zs);
  Alcotest.(check int) "single plate address" 1 (Trace.size trace);
  Alcotest.(check bool) "bare address" true (Trace.mem "x" trace);
  Alcotest.(check (array int))
    "stacked value shape" [| n |]
    (Ad.shape (Trace.get_ad "x" trace))

let test_plate_sequential_matches_batched () =
  (* Same program, both lowerings, same key: bit-identical draws and
     fp-close log densities; sequential traces use suffixed slots. *)
  let d = Dist.normal_reparam (Ad.scalar 0.1) (Ad.scalar 1.2) in
  let n = 6 in
  let zb, tb, wb = run_adev (Gen.simulate (plate_prog d n)) in
  let zs, ts, ws = run_adev (Gen.simulate (plate_prog (strip d) n)) in
  Alcotest.(check int) "sequential trace size" n (Trace.size ts);
  Alcotest.(check bool) "suffixed slots" true
    (Trace.mem "x[0]" ts && Trace.mem (Printf.sprintf "x[%d]" (n - 1)) ts);
  for i = 0 to n - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "row %d bit-identical" i)
      true
      (Float.equal (primal zb.(i)) (primal zs.(i)));
    Alcotest.(check bool)
      (Printf.sprintf "slot %d value" i)
      true
      (Float.equal
         (Tensor.get_flat (Ad.value (Trace.get_ad "x" tb)) i)
         (primal (Trace.get_ad (Printf.sprintf "x[%d]" i) ts)))
  done;
  check_close "log densities agree" ~tol:1e-9 (primal ws) (primal wb)

let test_plate_density_cross_representation () =
  (* The density evaluator accepts both trace forms and scores them
     identically. *)
  let d = Dist.normal_reparam (Ad.scalar 0.1) (Ad.scalar 1.2) in
  let n = 4 in
  let _, tb, _ = run_adev (Gen.simulate (plate_prog d n)) in
  let _, ts, _ = run_adev (Gen.simulate (plate_prog (strip d) n)) in
  let score prog t = primal (run_adev (Gen.log_density prog t)) in
  let on_batched = score (plate_prog d n) tb in
  let on_suffixed = score (plate_prog d n) ts in
  let stripped_on_suffixed = score (plate_prog (strip d) n) ts in
  check_close "batched trace vs suffixed trace" ~tol:1e-9 on_batched
    on_suffixed;
  check_close "stripped evaluator agrees" ~tol:1e-9 on_batched
    stripped_on_suffixed

let test_plate_heterogeneous_falls_back () =
  (* Index-dependent bodies cannot batch: the plate must still run,
     sequentially, with per-index addresses. *)
  let prog =
    Gen.plate ~n:3 (fun i ->
        Gen.sample
          (Dist.normal_reparam (Ad.scalar (float_of_int i)) (Ad.scalar 1.))
          "y")
  in
  let _, trace, _ = run_adev (Gen.simulate prog) in
  Alcotest.(check int) "three slots" 3 (Trace.size trace);
  Alcotest.(check bool) "suffixed" true (Trace.mem "y[1]" trace)

let test_plate_sample_prior_row_discipline () =
  let d = Dist.normal_reparam (Ad.scalar (-0.3)) (Ad.scalar 0.8) in
  let n = 5 in
  let _, tb, wb = Gen.sample_prior (plate_prog d n) k0 in
  let _, ts, ws = Gen.sample_prior (plate_prog (strip d) n) k0 in
  Alcotest.(check int) "batched prior trace" 1 (Trace.size tb);
  Alcotest.(check int) "sequential prior trace" n (Trace.size ts);
  for i = 0 to n - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "prior row %d" i)
      true
      (Float.equal
         (Tensor.get_flat (Ad.value (Trace.get_ad "x" tb)) i)
         (primal (Trace.get_ad (Printf.sprintf "x[%d]" i) ts)))
  done;
  check_close "prior log densities agree" ~tol:1e-9 ws wb

(* ------------------------------------------------------------------ *)
(* Plated vs looped ELBO gradients                                     *)

let plated_elbo_gradient ~batched ~seed ~n =
  let key = Prng.key seed in
  let mu_q = Ad.param (Tensor.scalar 0.45) and sig_q = Ad.param (Tensor.scalar 0.85) in
  let prior_mu = Ad.param (Tensor.scalar (-0.2)) in
  let maybe d = if batched then d else strip d in
  let guide = plate_prog (maybe (Dist.normal_reparam mu_q sig_q)) n in
  let model =
    let open Gen.Syntax in
    let* zs =
      Gen.plate ~n (fun _ ->
          Gen.sample (maybe (Dist.normal_reparam prior_mu (Ad.scalar 1.3))) "x")
    in
    let zbar =
      Ad.scale (1. /. float_of_int n) (Ad.add_list (Array.to_list zs))
    in
    Gen.observe (Dist.normal_reparam zbar (Ad.scalar 0.7)) (Ad.scalar 0.4)
  in
  let objective =
    let open Adev.Syntax in
    let* _, trace, logq = Gen.simulate guide in
    let* logp = Gen.log_density model trace in
    Adev.return (Ad.sub logp logq)
  in
  let v, grads =
    Adev.grad
      ~params:[ ("mu_q", mu_q); ("sig_q", sig_q); ("prior_mu", prior_mu) ]
      objective key
  in
  (v, List.map (fun (name, g) -> (name, Tensor.to_scalar g)) grads)

let test_plated_vs_looped_elbo_gradients () =
  List.iter
    (fun seed ->
      List.iter
        (fun n ->
          let vb, gb = plated_elbo_gradient ~batched:true ~seed ~n in
          let vs, gs = plated_elbo_gradient ~batched:false ~seed ~n in
          check_close
            (Printf.sprintf "objective seed=%d n=%d" seed n)
            ~tol:1e-8 vs vb;
          List.iter2
            (fun (name, want) (name', got) ->
              Alcotest.(check string) "grad order" name name';
              check_close
                (Printf.sprintf "grad %s seed=%d n=%d" name seed n)
                ~tol:1e-8 want got)
            gs gb)
        [ 1; 4; 17 ])
    [ 0; 7; 23 ]

(* ------------------------------------------------------------------ *)
(* Vectorized whole-program evaluators and objectives                  *)

let toy_model =
  let open Gen.Syntax in
  let* z = Gen.sample (Dist.normal_reparam (Ad.scalar 0.) (Ad.scalar 1.)) "z" in
  Gen.observe (Dist.normal_reparam z (Ad.scalar 0.5)) (Ad.scalar 0.7)

let toy_guide mu =
  let open Gen.Syntax in
  let* _ = Gen.sample (Dist.normal_reparam mu (Ad.scalar 0.6)) "z" in
  Gen.return ()

let test_simulate_batched_shapes () =
  let n = 9 in
  let _, trace, logq =
    run_adev (Gen.simulate_batched ~n (toy_guide (Ad.scalar 0.3)))
  in
  Alcotest.(check (array int)) "logq vector" [| n |] (Ad.shape logq);
  Alcotest.(check (array int))
    "stacked site" [| n |]
    (Ad.shape (Trace.get_ad "z" trace));
  let logp = run_adev (Gen.log_density_batched ~n toy_model trace) in
  Alcotest.(check (array int)) "logp vector" [| n |] (Ad.shape logp);
  (* Each component scores that instance's scalar trace. *)
  let z = Trace.get_ad "z" trace in
  for i = 0 to n - 1 do
    let t1 = Trace.singleton "z" (Value.Real (Ad.slice0 z i)) in
    check_close
      (Printf.sprintf "instance %d" i)
      ~tol:1e-9
      (primal (run_adev (Gen.log_density toy_model t1)))
      (Tensor.get_flat (Ad.value logp) i)
  done

let test_iwelbo_batched_statistics () =
  (* Same estimator either way: means agree statistically, and the
     batched estimate is differentiable. *)
  let mu = Ad.scalar 0.3 in
  let est batched =
    Adev.estimate ~samples:2000
      (Objectives.iwelbo ~batched ~particles:8 ~model:toy_model
         ~guide:(toy_guide mu) ())
      k0
  in
  let seq = est false and bat = est true in
  Alcotest.(check bool)
    (Printf.sprintf "iwelbo means agree (%.3f vs %.3f)" seq bat)
    true
    (Float.abs (seq -. bat) < 0.05);
  let mu' = Ad.param (Tensor.scalar 0.3) in
  let _, grads =
    Adev.grad ~params:[ ("mu", mu') ]
      (Objectives.iwelbo ~batched:true ~particles:8 ~model:toy_model
         ~guide:(toy_guide mu') ())
      k0
  in
  Alcotest.(check bool) "batched iwelbo grad finite" true
    (Float.is_finite (Tensor.to_scalar (List.assoc "mu" grads)))

let test_iwelbo_batched_fallback () =
  (* An ENUM guide cannot rank-lift: ~batched:true must silently fall
     back to the sequential construction under the same key. *)
  let guide =
    let open Gen.Syntax in
    let* _ = Gen.sample (Dist.flip_enum (Ad.scalar 0.4)) "b" in
    Gen.return ()
  in
  let model =
    let open Gen.Syntax in
    let* b = Gen.sample (Dist.flip_enum (Ad.scalar 0.5)) "b" in
    ignore b;
    Gen.return ()
  in
  let v b =
    Adev.estimate (Objectives.iwelbo ~batched:b ~particles:4 ~model ~guide ()) k0
  in
  Alcotest.(check (float 0.)) "fallback = sequential" (v false) (v true)

let test_elbo_batched_vector () =
  (* Data-indexed guide parameters: instance i draws from its own row;
     the vectorized ELBO is an [n]-vector of finite per-instance
     terms. *)
  let n = 5 in
  let mu =
    Ad.const (Tensor.init [| n; 1 |] (fun ix -> 0.1 *. float_of_int ix.(0)))
  in
  let std = Ad.const (Tensor.full [| n; 1 |] 0.8) in
  let model =
    let open Gen.Syntax in
    let* z =
      Gen.sample
        (Dist.mv_normal_diag_reparam
           (Ad.const (Tensor.zeros [| 1 |]))
           (Ad.const (Tensor.ones [| 1 |])))
        "z"
    in
    Gen.observe
      (Dist.mv_normal_diag_reparam z (Ad.const (Tensor.full [| 1 |] 0.5)))
      (Ad.const (Tensor.full [| 1 |] 0.3))
  in
  let guide =
    let open Gen.Syntax in
    let* _ = Gen.sample (Dist.mv_normal_diag_reparam mu std) "z" in
    Gen.return ()
  in
  let vec = run_adev (Objectives.elbo_batched ~n ~model ~guide) in
  Alcotest.(check (array int)) "elbo vector shape" [| n |] (Ad.shape vec);
  Array.iter
    (fun v -> Alcotest.(check bool) "component finite" true (Float.is_finite v))
    (Tensor.to_array (Ad.value vec))

let test_fit_batched_smoke () =
  let store = Store.create () in
  Store.ensure store "tb.mu" (fun () -> Tensor.scalar 0.1);
  let optim = Optim.adam ~lr:1e-2 () in
  let reports =
    Train.fit_batched ~store ~optim ~steps:3
      ~objective:(fun frame _step ->
        let mu = Store.Frame.get frame "tb.mu" in
        (4, Objectives.elbo_batched ~n:4 ~model:toy_model ~guide:(toy_guide mu)))
      k0
  in
  Alcotest.(check int) "three committed steps" 3 (List.length reports);
  List.iter
    (fun r ->
      Alcotest.(check bool) "objective finite" true
        (Float.is_finite r.Train.objective))
    reports

(* ------------------------------------------------------------------ *)
(* Case studies: VAE / CVAE batched paths                              *)

let test_vae_looped_matches_batched_elbo () =
  let store = Store.create () in
  Vae.register store (Prng.key 7);
  let images, _ = Data.digit_batch (Prng.key 8) 4 in
  let frame = Store.Frame.make store in
  let batched =
    Adev.estimate ~samples:300 (Vae.elbo_per_datum frame images) k0
  in
  let looped =
    Adev.estimate ~samples:300 (Vae.elbo_per_datum_looped frame images) k0
  in
  Alcotest.(check bool)
    (Printf.sprintf "vae elbo agree (%.2f vs %.2f)" batched looped)
    true
    (Float.abs (batched -. looped) <= 0.05 *. (1. +. Float.abs batched))

let test_cvae_elbo_batch_runs () =
  let store = Store.create () in
  Cvae.register store (Prng.key 9);
  let images, _ = Data.digit_batch (Prng.key 10) 3 in
  let rows =
    List.init 3 (fun i ->
        let img = Tensor.slice0 images i in
        ( Tensor.flatten (Data.quadrant img Cvae.observed_quadrant),
          Data.without_quadrant img Cvae.observed_quadrant ))
  in
  let inputs = Tensor.stack0 (List.map fst rows) in
  let targets = Tensor.stack0 (List.map snd rows) in
  let frame = Store.Frame.make store in
  let vec = run_adev (Cvae.elbo_batch frame inputs targets) in
  Alcotest.(check (array int)) "cvae elbo vector" [| 3 |] (Ad.shape vec);
  Array.iter
    (fun v ->
      Alcotest.(check bool) "cvae component finite" true (Float.is_finite v))
    (Tensor.to_array (Ad.value vec))

(* ------------------------------------------------------------------ *)
(* Analyzer: PV210 / PV211                                             *)

let test_check_plate_shape_mismatch () =
  let prog =
    Gen.plate ~n:4 (fun i ->
        let dim = if i = 0 then 2 else 3 in
        Gen.sample
          (Dist.mv_normal_diag_reparam
             (Ad.const (Tensor.zeros [| dim |]))
             (Ad.const (Tensor.ones [| dim |])))
          "z")
  in
  let report = Check.analyze (Check.Program (Gen.Packed prog)) in
  Alcotest.(check bool) "PV210 reported" true
    (List.exists (fun d -> d.Check.code = "PV210") report.Check.diagnostics)

let test_check_plate_escape () =
  let prog =
    let open Gen.Syntax in
    let* _ =
      Gen.sample (Dist.normal_reparam (Ad.scalar 0.) (Ad.scalar 1.)) "z"
    in
    let* _ =
      Gen.plate ~n:3 (fun _ ->
          Gen.sample (Dist.normal_reparam (Ad.scalar 0.) (Ad.scalar 1.)) "z")
    in
    Gen.return ()
  in
  let report = Check.analyze (Check.Program (Gen.Packed prog)) in
  Alcotest.(check bool) "PV211 reported" true
    (List.exists (fun d -> d.Check.code = "PV211") report.Check.diagnostics)

let test_check_plate_clean () =
  let prog = plate_prog (Dist.normal_reparam (Ad.scalar 0.) (Ad.scalar 1.)) 4 in
  let report = Check.analyze (Check.Program (Gen.Packed prog)) in
  Alcotest.(check bool) "clean plate has no errors" true
    (not (Check.has_errors report))

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_sample_n_rows_exact; prop_batched_density_matches_stacked ]

let suites =
  [ ( "batched",
      [ Alcotest.test_case "mv_normal_diag batched" `Quick
          test_mv_normal_diag_batched;
        Alcotest.test_case "mv_normal_diag data-indexed" `Quick
          test_mv_normal_diag_data_indexed;
        Alcotest.test_case "iid joint density" `Quick test_iid_joint_density;
        Alcotest.test_case "logsumexp_axis values" `Quick
          test_logsumexp_axis_values;
        Alcotest.test_case "axis reduction gradients" `Quick
          test_axis_reductions_grad;
        Alcotest.test_case "bernoulli_logits_scores fused" `Quick
          test_bernoulli_logits_scores_fused;
        Alcotest.test_case "replicate 100k primal" `Quick
          test_replicate_100k_primal;
        Alcotest.test_case "replicate key stream" `Quick
          test_replicate_key_stream_unchanged;
        Alcotest.test_case "sample_batched rows + refusal" `Quick
          test_sample_batched_rows_and_refusal;
        Alcotest.test_case "plate batched trace form" `Quick
          test_plate_batched_trace_form;
        Alcotest.test_case "plate sequential = batched" `Quick
          test_plate_sequential_matches_batched;
        Alcotest.test_case "plate density cross-representation" `Quick
          test_plate_density_cross_representation;
        Alcotest.test_case "plate heterogeneous fallback" `Quick
          test_plate_heterogeneous_falls_back;
        Alcotest.test_case "plate sample_prior rows" `Quick
          test_plate_sample_prior_row_discipline;
        Alcotest.test_case "plated vs looped ELBO grads" `Quick
          test_plated_vs_looped_elbo_gradients;
        Alcotest.test_case "simulate_batched shapes" `Quick
          test_simulate_batched_shapes;
        Alcotest.test_case "iwelbo batched statistics" `Slow
          test_iwelbo_batched_statistics;
        Alcotest.test_case "iwelbo batched fallback" `Quick
          test_iwelbo_batched_fallback;
        Alcotest.test_case "elbo_batched vector" `Quick test_elbo_batched_vector;
        Alcotest.test_case "fit_batched smoke" `Quick test_fit_batched_smoke;
        Alcotest.test_case "vae looped vs batched" `Slow
          test_vae_looped_matches_batched_elbo;
        Alcotest.test_case "cvae elbo_batch" `Quick test_cvae_elbo_batch_runs;
        Alcotest.test_case "PV210 plate shape" `Quick
          test_check_plate_shape_mismatch;
        Alcotest.test_case "PV211 plate escape" `Quick test_check_plate_escape;
        Alcotest.test_case "clean plate" `Quick test_check_plate_clean ]
      @ qcheck_cases ) ]
